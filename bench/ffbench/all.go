package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
)

// runSet is the output of -all: every run of every workload on one commit
// and one box. Two of these are what -compare reads.
type runSet struct {
	Host hostInfo `json:"host"`
	Runs []report `json:"runs"`
}

// runAll runs every workload: `runs` untraced runs on consecutive seeds and
// one traced run on the first of them. Each run is its own process — peak
// RSS and warm-up state are per run — started and waited for one at a time.
// With traceDir set, each workload's traced run leaves
// trace-<workload>.json there.
func runAll(cfg runConfig, runs int, out, traceDir string) error {
	if out == "" {
		return fmt.Errorf("-all needs -out")
	}
	if n := runtime.NumCPU(); n < pinnedWorkers {
		return fmt.Errorf("%d CPU(s), fewer than the %d pinned workers: a baseline measured here would mislead", n, pinnedWorkers)
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(cfg.scratch, 0o755); err != nil {
		return err
	}
	set := runSet{Host: collectHost(cfg.scratch, cfg.commit)}
	reportPath := filepath.Join(cfg.scratch, fmt.Sprintf("report-%d.json", os.Getpid()))
	defer os.Remove(reportPath)

	one := func(workload string, seed int64, trace bool) error {
		args := []string{"-workload", workload, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(cfg.seconds),
			"-scratch", cfg.scratch, "-commit", set.Host.Commit, "-report", reportPath}
		if trace {
			args = append(args, "-trace", "1")
			if traceDir != "" {
				args = append(args, "-trace-out", filepath.Join(traceDir, "trace-"+workload+".json"))
			}
		}
		cmd := exec.Command(exe, args...)
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("%s seed %d: %w", workload, seed, err)
		}
		data, err := os.ReadFile(reportPath)
		if err != nil {
			return err
		}
		var rep report
		if err := json.Unmarshal(data, &rep); err != nil {
			return fmt.Errorf("%s seed %d: reading its report: %w", workload, seed, err)
		}
		set.Runs = append(set.Runs, rep)
		return nil
	}
	for _, w := range workloads {
		for i := 0; i < runs; i++ {
			if err := one(w.name, cfg.seed+int64(i), false); err != nil {
				return err
			}
		}
		if err := one(w.name, cfg.seed, true); err != nil {
			return err
		}
	}
	data, err := json.MarshalIndent(set, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(out, append(data, '\n'), 0o644)
}
