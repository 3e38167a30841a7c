package dist_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/fastfit/fastfit/internal/apps/all"
	"github.com/fastfit/fastfit/internal/core"
	"github.com/fastfit/fastfit/internal/dist"
	"github.com/fastfit/fastfit/internal/recfile"
)

// The chaos-restart suite: SIGKILL the coordinator mid-campaign (simulated
// by abandoning the process state — only the WAL on disk survives, exactly
// what a kill -9 leaves), recover from the WAL, and require the finished
// campaign to be byte-identical to a never-killed serial run. The
// determinism contract is what makes this possible: every lost record is
// re-measured identically, so durability only has to preserve identity,
// not every byte of transient state.

// fastRetry is an outage-tolerance policy with tiny real delays, so a test
// worker rides out a coordinator restart in milliseconds instead of
// seconds but still exercises the full retry path.
func fastRetry() dist.RetryPolicy {
	return dist.RetryPolicy{
		Base:     time.Millisecond,
		Max:      4 * time.Millisecond,
		Attempts: 2000,
		Jitter:   func() float64 { return 0.5 },
	}
}

// killCoordinator simulates kill -9 on the control plane: stop serving and
// drop every in-memory structure without any shutdown courtesy. The WAL is
// valid on disk at every instant (appends are single whole-line writes),
// so there is deliberately no Close/Sync here.
func killCoordinator(srv *httptest.Server, coord *dist.Coordinator) {
	srv.CloseClientConnections()
	srv.Close()
	coord.Hub().Close()
}

// runKilledAndRecovered runs one campaign through a mid-flight coordinator
// SIGKILL: a doomed worker streams until the chaos hook kills it, the
// coordinator is killed and recovered from its WAL, and a fresh worker
// finishes the recovered campaign.
func runKilledAndRecovered(t *testing.T, opts core.Options, lookahead, killAt int) campaignLeg {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "campaign")
	ckpt := filepath.Join(t.TempDir(), "merged.ckpt")
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()

	coord, err := dist.NewCoordinator(testEngine(t, opts), dist.CoordinatorOptions{
		LeaseSize: 4,
		Lookahead: lookahead,
		Store:     dir,
	})
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	srv := httptest.NewServer(coord.Handler())
	// BatchSize 2 with a kill at `killAt` records leaves the final batch
	// unflushed in some cases and cleanly flushed in others — both crash
	// shapes appear across the sweep's randomized arrival counts.
	err = dist.RunWorker(ctx, srv.URL, dist.WorkerOptions{
		Name:         "doomed",
		Lookup:       all.Lookup,
		Workers:      1,
		BatchSize:    2,
		PollInterval: 5 * time.Millisecond,
		MaxRecords:   killAt,
		Retry:        fastRetry(),
	})
	if !errors.Is(err, dist.ErrWorkerKilled) {
		t.Fatalf("doomed worker: got %v, want ErrWorkerKilled", err)
	}
	killCoordinator(srv, coord)

	rec, err := dist.RecoverCoordinator(dir, all.Lookup, dist.CoordinatorOptions{
		LeaseSize: 4,
		Lookahead: lookahead,
		Supervisor: core.SupervisorOptions{
			Workers:    1,
			Checkpoint: ckpt,
		},
	})
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if rec.Epoch() != 2 {
		t.Errorf("recovered epoch = %d, want 2", rec.Epoch())
	}
	if got, want := rec.Spec().Fingerprint, coord.Spec().Fingerprint; got != want {
		t.Fatalf("recovered fingerprint %s != original %s", got, want)
	}
	srv2 := httptest.NewServer(rec.Handler())
	defer srv2.Close()
	err = dist.RunWorker(ctx, srv2.URL, dist.WorkerOptions{
		Name:         "survivor",
		Lookup:       all.Lookup,
		Workers:      2,
		BatchSize:    3,
		PollInterval: 5 * time.Millisecond,
		Retry:        fastRetry(),
	})
	if err != nil {
		t.Fatalf("survivor worker: %v", err)
	}
	res, err := rec.Result(ctx)
	if err != nil {
		t.Fatalf("merge after recovery: %v", err)
	}
	st := rec.Status()
	if st.Epoch != 2 || !st.Merged {
		t.Fatalf("recovered status: epoch=%d merged=%t, want epoch 2 and merged", st.Epoch, st.Merged)
	}
	return campaignLeg{json: jsonBytes(t, res.CampaignResult), journal: readFile(t, ckpt)}
}

// TestChaosRestartIdentity is the crash-durability contract: SIGKILL the
// coordinator mid-campaign at a randomized arrival count, recover from the
// WAL, finish — and the merged campaign JSON and checkpoint journal must
// be byte-identical to a never-killed single-process run, on every
// campaign path and every seed.
func TestChaosRestartIdentity(t *testing.T) {
	seeds := int64(20)
	if raceEnabled || testing.Short() {
		seeds = 4
	}
	paths := identityPaths()
	for seed := int64(1); seed <= seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			for _, path := range paths {
				path := path
				t.Run(path.name, func(t *testing.T) {
					po := path.opts(seed)
					serial := runSerial(t, po.opts)
					// Randomize where in the arrival stream the kill lands:
					// 1..3 records keeps it below every path's measured-point
					// floor, so the kill is guaranteed to fire.
					killAt := 1 + int(seed%3)
					recovered := runKilledAndRecovered(t, po.opts, po.lookahead, killAt)
					compareLegs(t, fmt.Sprintf("%s/killAt=%d", path.name, killAt), serial, recovered)
				})
			}
		})
	}
}

// TestChaosDoubleRestart kills the coordinator twice: crash, recover,
// crash the recovery, recover again (epoch 3) and finish. Identity must
// survive arbitrarily many generations — and a first generation whose WAL
// carries an option and a config field later builds no longer have. The
// same log naming a collective variant those builds cannot run is refused.
func TestChaosDoubleRestart(t *testing.T) {
	opts := testOptions(5)
	serial := runSerial(t, opts)
	dir := filepath.Join(t.TempDir(), "campaign")
	ckpt := filepath.Join(t.TempDir(), "merged.ckpt")
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()

	copts := func() dist.CoordinatorOptions { return dist.CoordinatorOptions{LeaseSize: 4} }
	doomed := func(n int, url string, kill int) error {
		return dist.RunWorker(ctx, url, dist.WorkerOptions{
			Name:         fmt.Sprintf("doomed-%d", n),
			Lookup:       all.Lookup,
			Workers:      1,
			BatchSize:    1, // every record flushes: each generation leaves records behind
			PollInterval: 5 * time.Millisecond,
			MaxRecords:   kill,
			Retry:        fastRetry(),
		})
	}

	c1opts := copts()
	c1opts.Store = dir
	coord1, err := dist.NewCoordinator(testEngine(t, opts), c1opts)
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	srv1 := httptest.NewServer(coord1.Handler())
	if err := doomed(1, srv1.URL, 1); !errors.Is(err, dist.ErrWorkerKilled) {
		t.Fatalf("doomed worker 1: %v", err)
	}
	killCoordinator(srv1, coord1)

	// Builds with a resilient-collective zoo wrote apps.Config.Algorithm
	// into every spec and hashed "alg=" into the fingerprint when it was
	// set: 78084383559d9fac is this campaign's under the ftring variant.
	// Decoding drops the field, so only the fingerprint cross-check keeps
	// such a log from recovering as the baseline campaign.
	ftring := filepath.Join(t.TempDir(), "ftring")
	if err := os.MkdirAll(ftring, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := recfile.WriteFile(filepath.Join(ftring, dist.WALFileName), readFile(t, filepath.Join(dir, dist.WALFileName))); err != nil {
		t.Fatal(err)
	}
	editOpenRecord(t, ftring, func(open []byte) []byte {
		open = regexp.MustCompile(`"config":\{[^}]*`).ReplaceAll(open, []byte(`${0},"Algorithm":"ftring"`))
		return regexp.MustCompile(`"fingerprint":"[0-9a-f]+"`).ReplaceAll(open, []byte(`"fingerprint":"78084383559d9fac"`))
	})
	if _, err := dist.RecoverCoordinator(ftring, all.Lookup, copts()); err == nil || !strings.Contains(err.Error(), "replanned fingerprint") {
		t.Fatalf("recovering a campaign of the ftring variant: got %v, want the fingerprint cross-check's refusal", err)
	}
	editOpenRecord(t, dir, addRemovedFields)

	coord2, err := dist.RecoverCoordinator(dir, all.Lookup, copts())
	if err != nil {
		t.Fatalf("first recovery: %v", err)
	}
	if coord2.Epoch() != 2 {
		t.Fatalf("first recovery epoch = %d, want 2", coord2.Epoch())
	}
	if got := coord2.Status().Recorded; got != 1 {
		t.Fatalf("first recovery has %d records, want 1", got)
	}
	srv2 := httptest.NewServer(coord2.Handler())
	if err := doomed(2, srv2.URL, 2); !errors.Is(err, dist.ErrWorkerKilled) {
		t.Fatalf("doomed worker 2: %v", err)
	}
	killCoordinator(srv2, coord2)

	fopts := copts()
	fopts.Supervisor = core.SupervisorOptions{Workers: 1, Checkpoint: ckpt}
	coord3, err := dist.RecoverCoordinator(dir, all.Lookup, fopts)
	if err != nil {
		t.Fatalf("second recovery: %v", err)
	}
	if coord3.Epoch() != 3 {
		t.Fatalf("second recovery epoch = %d, want 3", coord3.Epoch())
	}
	if got := coord3.Status().Recorded; got != 3 {
		t.Fatalf("second recovery has %d records, want 3", got)
	}
	srv3 := httptest.NewServer(coord3.Handler())
	defer srv3.Close()
	err = dist.RunWorker(ctx, srv3.URL, dist.WorkerOptions{
		Name: "survivor", Lookup: all.Lookup, Workers: 2, BatchSize: 3,
		PollInterval: 5 * time.Millisecond, Retry: fastRetry(),
	})
	if err != nil {
		t.Fatalf("survivor: %v", err)
	}
	res, err := coord3.Result(ctx)
	if err != nil {
		t.Fatalf("merge: %v", err)
	}
	compareLegs(t, "double-restart", serial, campaignLeg{
		json:    jsonBytes(t, res.CampaignResult),
		journal: readFile(t, ckpt),
	})

	// The merged campaign refuses a third recovery: its WAL is a finished
	// history, not recoverable state.
	if _, err := dist.RecoverCoordinator(dir, all.Lookup, copts()); !errors.Is(err, dist.ErrCampaignMerged) {
		t.Fatalf("recovering a merged campaign: got %v, want ErrCampaignMerged", err)
	}
}

// addRemovedFields writes the open record the way older builds did: the
// campaign options of builds that still had core.Exec.DisablePooling
// carried "DisablePooling":false, and the config of builds that still had
// apps.Config.Algorithm carried "Algorithm":"". Such a log must still
// recover — neither field entered the fingerprint.
func addRemovedFields(open []byte) []byte {
	open = regexp.MustCompile(`"Parallelism":\d+,`).ReplaceAll(open, []byte(`${0}"DisablePooling":false,`))
	return regexp.MustCompile(`"config":\{[^}]*`).ReplaceAll(open, []byte(`${0},"Algorithm":""`))
}

// editOpenRecord rewrites the open record of the WAL in dir with edit,
// which must change it.
func editOpenRecord(t *testing.T, dir string, edit func([]byte) []byte) {
	t.Helper()
	path := filepath.Join(dir, dist.WALFileName)
	lines, _, _ := recfile.Split(readFile(t, path))
	open, err := recfile.ParseLine(lines[0])
	if err != nil {
		t.Fatal(err)
	}
	legacy := edit(bytes.Clone(open))
	if bytes.Equal(legacy, open) {
		t.Fatalf("the edit left the open record as it was: %s", open)
	}
	data := recfile.EncodeLine(legacy)
	for _, line := range lines[1:] {
		data = append(append(data, line...), '\n')
	}
	if err := recfile.WriteFile(path, data); err != nil {
		t.Fatal(err)
	}
}

// TestWorkerSurvivesCoordinatorRestart keeps ONE worker process alive
// across a coordinator kill/recover on the same address: the worker rides
// the outage on client backoff, gets Expired for its pre-crash lease from
// the recovered coordinator (the epoch bump guarantees the lease ID is
// unknown), re-leases and finishes. Identity must hold with no worker
// restart at all.
func TestWorkerSurvivesCoordinatorRestart(t *testing.T) {
	opts := testOptions(9)
	serial := runSerial(t, opts)
	dir := filepath.Join(t.TempDir(), "campaign")
	ckpt := filepath.Join(t.TempDir(), "merged.ckpt")
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()

	coord1, err := dist.NewCoordinator(testEngine(t, opts), dist.CoordinatorOptions{
		LeaseSize: 4,
		Store:     dir,
	})
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	hsrv1 := &http.Server{Handler: coord1.Handler()}
	go hsrv1.Serve(ln)

	workerDone := make(chan error, 1)
	go func() {
		workerDone <- dist.RunWorker(ctx, "http://"+addr, dist.WorkerOptions{
			Name:         "steadfast",
			Lookup:       all.Lookup,
			Workers:      1,
			BatchSize:    1,
			PollInterval: 2 * time.Millisecond,
			Retry:        fastRetry(),
		})
	}()

	// Let the worker make real progress, then yank the coordinator.
	waitFor(t, "worker progress before the kill", func() bool {
		return coord1.Status().Recorded >= 2
	})
	hsrv1.Close()
	coord1.Hub().Close()

	rec, err := dist.RecoverCoordinator(dir, all.Lookup, dist.CoordinatorOptions{
		LeaseSize:  4,
		Supervisor: core.SupervisorOptions{Workers: 1, Checkpoint: ckpt},
	})
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	// Rebind the same address so the surviving worker's retries land on the
	// recovered coordinator.
	var ln2 net.Listener
	waitFor(t, "rebinding the coordinator address", func() bool {
		ln2, err = net.Listen("tcp", addr)
		return err == nil
	})
	hsrv2 := &http.Server{Handler: rec.Handler()}
	go hsrv2.Serve(ln2)
	defer hsrv2.Close()

	res, err := rec.Result(ctx)
	if err != nil {
		t.Fatalf("merge: %v", err)
	}
	if werr := <-workerDone; werr != nil {
		t.Fatalf("surviving worker: %v", werr)
	}
	if rec.Epoch() != 2 {
		t.Errorf("epoch after restart = %d, want 2", rec.Epoch())
	}
	compareLegs(t, "surviving-worker", serial, campaignLeg{
		json:    jsonBytes(t, res.CampaignResult),
		journal: readFile(t, ckpt),
	})
}

// TestServiceTwoCampaignRestartIdentity multiplexes two campaigns onto one
// service, kills the whole process mid-flight, reopens the store, and
// requires BOTH campaigns to finish byte-identical to their serial runs —
// the multi-campaign registry and the per-campaign WALs must not bleed
// into each other.
func TestServiceTwoCampaignRestartIdentity(t *testing.T) {
	store := t.TempDir()
	optsA, optsB := testOptions(3), testOptions(4)
	serialA, serialB := runSerial(t, optsA), runSerial(t, optsB)
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()

	svc := dist.NewService(store, all.Lookup)
	cA, recovered, err := svc.Open(testEngine(t, optsA), dist.CoordinatorOptions{LeaseSize: 4})
	if err != nil || recovered {
		t.Fatalf("open A: recovered=%t err=%v", recovered, err)
	}
	cB, recovered, err := svc.Open(testEngine(t, optsB), dist.CoordinatorOptions{LeaseSize: 4})
	if err != nil || recovered {
		t.Fatalf("open B: recovered=%t err=%v", recovered, err)
	}
	fpA, fpB := cA.Spec().Fingerprint, cB.Spec().Fingerprint
	if fpA == fpB {
		t.Fatalf("test needs two distinct campaigns, both fingerprint %s", fpA)
	}
	srv := httptest.NewServer(svc.Handler())

	// The bare single-campaign routes are ambiguous with two campaigns
	// open: they must refuse, naming the open fingerprints.
	if _, err := dist.NewClient(srv.URL, nil).Status(ctx); err == nil {
		t.Fatal("bare /v1/status answered despite two campaigns being open")
	} else if !strings.Contains(err.Error(), fpA) || !strings.Contains(err.Error(), fpB) {
		t.Fatalf("ambiguity error does not name the open campaigns: %v", err)
	}

	// Each campaign makes some progress, then the process dies.
	for _, fp := range []string{fpA, fpB} {
		err := dist.RunWorker(ctx, srv.URL, dist.WorkerOptions{
			Name:         "doomed-" + fp,
			Lookup:       all.Lookup,
			Campaign:     fp,
			Workers:      1,
			BatchSize:    1,
			PollInterval: 5 * time.Millisecond,
			MaxRecords:   2,
			Retry:        fastRetry(),
		})
		if !errors.Is(err, dist.ErrWorkerKilled) {
			t.Fatalf("doomed worker on %s: %v", fp, err)
		}
	}
	srv.CloseClientConnections()
	srv.Close()
	cA.Hub().Close()
	cB.Hub().Close()

	// Restart: a fresh service on the same store reopens both campaigns.
	svc2 := dist.NewService(store, all.Lookup)
	reopened, err := svc2.ReopenAll(func(fp string) dist.CoordinatorOptions {
		return dist.CoordinatorOptions{
			LeaseSize: 4,
			Supervisor: core.SupervisorOptions{
				Workers:    1,
				Checkpoint: filepath.Join(store, fp, "merged.ckpt"),
			},
		}
	})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if len(reopened) != 2 {
		t.Fatalf("reopened %d campaigns, want 2", len(reopened))
	}
	srv2 := httptest.NewServer(svc2.Handler())
	defer srv2.Close()

	rep, err := dist.NewClient(srv2.URL, nil).Campaigns(ctx)
	if err != nil {
		t.Fatalf("campaigns listing: %v", err)
	}
	if len(rep.Campaigns) != 2 {
		t.Fatalf("listing has %d campaigns, want 2: %+v", len(rep.Campaigns), rep)
	}
	for _, info := range rep.Campaigns {
		if info.Epoch != 2 {
			t.Errorf("campaign %s epoch = %d, want 2", info.Fingerprint, info.Epoch)
		}
		if info.Recorded != 2 {
			t.Errorf("campaign %s recovered %d records, want 2", info.Fingerprint, info.Recorded)
		}
	}

	// One worker per campaign, concurrently, to completion.
	var wg sync.WaitGroup
	werrs := map[string]error{}
	var mu sync.Mutex
	for _, fp := range []string{fpA, fpB} {
		fp := fp
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := dist.RunWorker(ctx, srv2.URL, dist.WorkerOptions{
				Name:         "survivor-" + fp,
				Lookup:       all.Lookup,
				Campaign:     fp,
				Workers:      2,
				BatchSize:    3,
				PollInterval: 5 * time.Millisecond,
				Retry:        fastRetry(),
			})
			mu.Lock()
			werrs[fp] = err
			mu.Unlock()
		}()
	}
	finish := func(fp string, serial campaignLeg) {
		c, ok := svc2.Coordinator(fp)
		if !ok {
			t.Fatalf("campaign %s missing after reopen", fp)
		}
		res, err := c.Result(ctx)
		if err != nil {
			t.Fatalf("merge %s: %v", fp, err)
		}
		compareLegs(t, "two-campaign/"+fp, serial, campaignLeg{
			json:    jsonBytes(t, res.CampaignResult),
			journal: readFile(t, filepath.Join(store, fp, "merged.ckpt")),
		})
	}
	finish(fpA, serialA)
	finish(fpB, serialB)
	wg.Wait()
	for fp, err := range werrs {
		if err != nil {
			t.Fatalf("survivor on %s: %v", fp, err)
		}
	}
}
