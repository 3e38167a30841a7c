package cliconf

import (
	"flag"
	"fmt"
	"os"

	"github.com/fastfit/fastfit/internal/core"
)

// ObserverFlags holds the parsed event-stream flags fastfit, ffd serve and
// ffexp share: -progress, -events and (where the command has one) -v.
type ObserverFlags struct {
	name     string
	Verbose  bool
	Progress bool
	Events   string
}

// RegisterObserver installs -progress and -events on fs, plus -v when
// verbose is set (ffexp logs through its own -q instead). name is the
// command's name as it prefixes verbose lines and warnings.
func RegisterObserver(fs *flag.FlagSet, name string, verbose bool) *ObserverFlags {
	o := &ObserverFlags{name: name}
	fs.BoolVar(&o.Progress, "progress", false, "print a live progress line (outcomes, pts/s, ETA) to stderr")
	fs.StringVar(&o.Events, "events", "", "append the typed event stream as JSONL to this file")
	if verbose {
		fs.BoolVar(&o.Verbose, "v", false, "verbose progress")
	}
	return o
}

// Build returns the observer the parsed flags ask for — nil when none is
// set — and the function that closes the -events file, warning on stderr if
// the stream could not be written in full.
func (o *ObserverFlags) Build() (core.Observer, func(), error) {
	var observers []core.Observer
	closeFn := func() {}
	if o.Verbose {
		observers = append(observers, core.LogfObserver(func(format string, args ...any) {
			fmt.Printf("["+o.name+"] "+format+"\n", args...)
		}))
	}
	if o.Progress {
		observers = append(observers, progressObserver())
	}
	if o.Events != "" {
		jo, err := core.CreateJSONLObserver(o.Events)
		if err != nil {
			return nil, nil, err
		}
		closeFn = func() {
			if err := jo.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "%s: event stream %s: %v\n", o.name, o.Events, err)
			}
		}
		observers = append(observers, jo)
	}
	if len(observers) == 0 {
		return nil, closeFn, nil
	}
	return core.MultiObserver(observers...), closeFn, nil
}

// progressObserver renders a self-overwriting live progress line from the
// event stream: running outcome distribution, shards, points/sec and ETA
// during the campaign, a final summary line when it finishes, on stderr.
// Each redraw is padded to the length of the line it overwrites.
func progressObserver() core.Observer {
	stats := core.NewStreamStats()
	prev := 0
	return core.MultiObserver(stats, core.ObserverFunc(func(ev core.Event) {
		end := ""
		switch ev.(type) {
		case core.PointCompleted, core.PointRefined, core.PointQuarantined, core.ShardLease, core.PhaseChanged:
		case core.CampaignFinished:
			end = "\n"
		default:
			return
		}
		line := stats.Snapshot().ProgressLine()
		fmt.Fprintf(os.Stderr, "\r%-*s%s", prev, line, end)
		prev = len(line)
	}))
}
