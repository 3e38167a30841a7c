// Command ffd runs the distributed FastFIT campaign service: a coordinator
// that leases checkpoint index ranges to worker shards over HTTP and merges
// their journals into a campaign result byte-identical to a single-process
// run (see internal/dist).
//
// Usage:
//
//	ffd serve -app lu -trials 40 -listen :7411 -save lu.json
//	ffd serve -store /var/lib/ffd -app lu -trials 40     # crash-durable
//	ffd work -connect http://coordinator:7411            # on each shard host
//	ffd status -connect http://coordinator:7411          # control-plane state
//
// `serve` plans the campaign described by the shared fastfit campaign flags
// and serves it until every index range has been measured and merged; it
// prints the same summary `fastfit` would for the identical flags. With
// -store DIR the control plane is crash-durable: every applied journal
// batch lands in a write-ahead log under DIR/<fingerprint>/ before it is
// acked, a restarted `ffd serve -store DIR` recovers every unfinished
// campaign from its WAL (kill -9 loses nothing), and one process hosts any
// number of campaigns at once under /v1/campaigns/<fingerprint>/. `work`
// attaches a shard: it rebuilds the engine from the served spec,
// cross-checks the campaign fingerprint, and loops lease → inject → stream
// until the campaign finishes; coordinator outages and restarts are ridden
// out with capped jittered backoff and re-leasing. `status` prints the
// coordinator's lease and subscriber accounting. The live event feed is
// served as SSE on /v1/events with Last-Event-ID resume.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"github.com/fastfit/fastfit/internal/apps/all"
	"github.com/fastfit/fastfit/internal/cliconf"
	"github.com/fastfit/fastfit/internal/core"
	"github.com/fastfit/fastfit/internal/dist"
)

// errInterrupted marks a run stopped by SIGINT/SIGTERM; main exits with
// the conventional 130 so scripts can distinguish interruption from
// failure.
var errInterrupted = errors.New("interrupted")

func main() {
	if err := run(os.Args[1:]); err != nil {
		if errors.Is(err, errInterrupted) {
			fmt.Fprintln(os.Stderr, "ffd: interrupted")
			os.Exit(130)
		}
		fmt.Fprintln(os.Stderr, "ffd:", err)
		os.Exit(1)
	}
}

const usage = `ffd runs a distributed FastFIT campaign.

  ffd serve  [campaign flags] [-listen addr] [-store dir] [-checkpoint path] [-save path]
  ffd work   [-connect url] [-campaign fp] [-name shard] [-workers n]
  ffd status [-connect url] [-campaign fp] [-json]

Run 'ffd <subcommand> -h' for the full flag list.`

func run(args []string) error {
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, usage)
		return fmt.Errorf("missing subcommand")
	}
	switch args[0] {
	case "serve":
		return runServe(args[1:])
	case "work":
		return runWork(args[1:])
	case "status":
		return runStatus(args[1:])
	case "help", "-h", "-help", "--help":
		fmt.Println(usage)
		return nil
	default:
		fmt.Fprintln(os.Stderr, usage)
		return fmt.Errorf("unknown subcommand %q", args[0])
	}
}

func signalContext() (context.Context, context.CancelFunc) {
	return signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
}

// runServe hosts the coordinator: it plans the campaign the shared flags
// describe, serves the lease/journal/event API, and blocks until the
// record store is complete and merged (or the process is interrupted).
func runServe(args []string) error {
	fs := flag.NewFlagSet("ffd serve", flag.ExitOnError)
	camp := cliconf.Register(fs)
	obsFlags := cliconf.RegisterObserver(fs, "ffd", true)
	var (
		listen     = fs.String("listen", "127.0.0.1:7411", "address to serve the coordinator API on")
		store      = fs.String("store", "", "durable state root: WAL every campaign under DIR/<fingerprint>/ and recover unfinished campaigns on restart")
		leaseTTL   = fs.Duration("lease-ttl", 30*time.Second, "how long a shard may hold a lease without renewing")
		leaseSize  = fs.Int("lease-size", 64, "maximum indexes per lease")
		lookahead  = fs.Int("lookahead", 16, "speculative lease distance past the ML replay frontier")
		checkpoint = fs.String("checkpoint", "", "write the merged campaign journal (framed records: read with cut -c19- | jq) to this path")
		saveJSON   = fs.String("save", "", "write the merged campaign result to a JSON file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	feed, closeEvents, err := obsFlags.Build()
	if err != nil {
		return err
	}
	defer closeEvents()

	// The engines carry no observer: each coordinator authors its live feed
	// itself (arrival-order point events, lease events, the merged finish).
	svc := dist.NewService(*store, all.Lookup)
	baseOpts := dist.CoordinatorOptions{
		LeaseTTL:  *leaseTTL,
		LeaseSize: *leaseSize,
		Lookahead: *lookahead,
		Supervisor: core.SupervisorOptions{
			Workers:    1,
			Checkpoint: *checkpoint,
		},
	}
	recoveredBanner := func(c *dist.Coordinator) {
		st := c.Status()
		fmt.Printf("ffd: recovered campaign %s from %s: %d/%d points already collected (epoch %d)\n",
			st.Fingerprint, svc.CampaignDir(st.Fingerprint), st.Recorded+st.Quarantined, st.Points, st.Epoch)
	}

	// The primary campaign is the one the shared campaign flags describe
	// (created fresh, or recovered if the store already holds its WAL). It
	// is skipped only when -store was given without any campaign flag and
	// the store holds unfinished campaigns: then the store's own contents
	// decide what this process serves.
	var primary *dist.Coordinator
	openPrimary := func() error {
		app, cfg, opts, err := camp.Build()
		if err != nil {
			return err
		}
		popts := baseOpts
		popts.Observer = feed
		c, recovered, err := svc.Open(core.New(app, cfg, opts), popts)
		if err != nil {
			return err
		}
		if recovered {
			recoveredBanner(c)
		}
		primary = c
		return nil
	}
	if *store == "" || camp.Explicit(fs) {
		if err := openPrimary(); err != nil {
			return err
		}
	}
	reopened, err := svc.ReopenAll(func(fp string) dist.CoordinatorOptions {
		ropts := baseOpts
		ropts.Supervisor.Checkpoint = filepath.Join(svc.CampaignDir(fp), "merged.ckpt")
		return ropts
	})
	if err != nil {
		return err
	}
	for _, c := range reopened {
		recoveredBanner(c)
	}
	if primary == nil && len(reopened) == 0 {
		// -store with no campaign flags and nothing recoverable: serve the
		// default-flag campaign, as a storeless `ffd serve` would.
		if err := openPrimary(); err != nil {
			return err
		}
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: svc.Handler()}
	go srv.Serve(ln)
	defer srv.Close()

	coords := svc.Campaigns()
	multi := len(coords) > 1
	for _, c := range coords {
		spec := c.Spec()
		fmt.Printf("ffd: serving %s campaign %s (%d points) on http://%s\n",
			spec.App, spec.Fingerprint, spec.Points, ln.Addr())
	}
	if *store != "" {
		fmt.Printf("ffd: durable store: %s\n", *store)
	}
	if multi {
		fmt.Printf("ffd: attach shards with: ffd work -connect http://%s -campaign <fingerprint>\n", ln.Addr())
	} else {
		fmt.Printf("ffd: attach shards with: ffd work -connect http://%s\n", ln.Addr())
	}

	ctx, stop := signalContext()
	defer stop()
	start := time.Now()
	for _, c := range coords {
		res, err := c.Result(ctx)
		if err != nil {
			if ctx.Err() != nil {
				st := c.Status()
				fmt.Fprintf(os.Stderr, "\ncampaign %s interrupted: %d/%d points collected\n",
					st.Fingerprint, st.Recorded+st.Quarantined, st.Points)
				return errInterrupted
			}
			return fmt.Errorf("campaign %s: %w", c.Spec().Fingerprint, err)
		}
		if multi {
			fmt.Printf("== campaign %s ==\n", c.Spec().Fingerprint)
		}
		fmt.Println(res.Summary())
		st := c.Status()
		fmt.Printf("leases granted: %d (%d expired and re-leased)\n", st.LeasesGranted, st.LeasesExpired)
		if len(res.Quarantined) > 0 {
			fmt.Printf("quarantined %d poison point(s):\n", len(res.Quarantined))
			for _, q := range res.Quarantined {
				fmt.Printf("  point %d (%s): %s after %d attempts\n", q.Index, q.Point.String(), q.Err, q.Attempts)
			}
		}
		switch {
		case c == primary:
			if *checkpoint != "" {
				fmt.Printf("merged campaign journal: %s\n", *checkpoint)
			}
			if *saveJSON != "" {
				if err := res.SaveJSON(*saveJSON); err != nil {
					return err
				}
				fmt.Printf("campaign result saved to %s\n", *saveJSON)
			}
		default:
			// Recovered, non-primary campaigns persist their result beside
			// their WAL — there is no flag describing where else to put it.
			out := filepath.Join(svc.CampaignDir(c.Spec().Fingerprint), "result.json")
			if err := res.SaveJSON(out); err != nil {
				return err
			}
			fmt.Printf("campaign result saved to %s\n", out)
		}
	}
	fmt.Printf("campaign wall-clock: %v\n", time.Since(start).Round(time.Millisecond))
	return nil
}

// runWork attaches one shard to a coordinator and runs until the campaign
// completes.
func runWork(args []string) error {
	fs := flag.NewFlagSet("ffd work", flag.ExitOnError)
	var (
		connect  = fs.String("connect", "http://127.0.0.1:7411", "coordinator base URL")
		campaign = fs.String("campaign", "", "campaign fingerprint to work on (required when the coordinator hosts several)")
		name     = fs.String("name", "", "shard name in lease accounting (default host-pid)")
		workers  = fs.Int("workers", 0, "concurrent injection points on this shard (0 = derive from GOMAXPROCS)")
		batch    = fs.Int("batch", 8, "journal records per streamed batch")
		poll     = fs.Duration("poll", 200*time.Millisecond, "poll interval while no work is leasable")
		maxRecs  = fs.Int("chaos-max-records", 0, "die (simulating a shard crash) after streaming this many records; 0 = never (chaos-testing hook)")
		verbose  = fs.Bool("v", false, "verbose progress")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *name == "" {
		host, err := os.Hostname()
		if err != nil || host == "" {
			host = "shard"
		}
		*name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	wopts := dist.WorkerOptions{
		Name:         *name,
		Lookup:       all.Lookup,
		Campaign:     *campaign,
		Workers:      *workers,
		BatchSize:    *batch,
		PollInterval: *poll,
		MaxRecords:   *maxRecs,
	}
	if *verbose {
		wopts.Observer = core.LogfObserver(func(format string, args ...any) {
			fmt.Printf("[%s] "+format+"\n", append([]any{*name}, args...)...)
		})
	}
	ctx, stop := signalContext()
	defer stop()
	fmt.Printf("ffd: shard %s working for %s\n", *name, *connect)
	if err := dist.RunWorker(ctx, *connect, wopts); err != nil {
		if ctx.Err() != nil {
			return errInterrupted
		}
		return err
	}
	fmt.Println("ffd: campaign complete")
	return nil
}

// runStatus prints the coordinator's control-plane state.
func runStatus(args []string) error {
	fs := flag.NewFlagSet("ffd status", flag.ExitOnError)
	var (
		connect  = fs.String("connect", "http://127.0.0.1:7411", "coordinator base URL")
		campaign = fs.String("campaign", "", "campaign fingerprint to query (required when the coordinator hosts several)")
		jsonOut  = fs.Bool("json", false, "print the raw status reply as JSON")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	ctx, stop := signalContext()
	defer stop()
	cl := dist.NewClient(*connect, nil)
	if *campaign != "" {
		cl = cl.ForCampaign(*campaign)
	}
	st, err := cl.Status(ctx)
	if err != nil {
		if *campaign != "" {
			return fmt.Errorf("cannot read status of campaign %s from coordinator at %s: %w", *campaign, *connect, err)
		}
		return fmt.Errorf("cannot read status from coordinator at %s (is `ffd serve` running there?): %w", *connect, err)
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", " ")
		return enc.Encode(st)
	}
	fmt.Printf("campaign:   %s (%s)\n", st.App, st.Fingerprint)
	fmt.Printf("points:     %d total, %d wanted (frontier final: %t)\n", st.Points, st.Needed, st.FrontierDone)
	fmt.Printf("collected:  %d recorded, %d quarantined (complete: %t, merged: %t)\n",
		st.Recorded, st.Quarantined, st.Complete, st.Merged)
	fmt.Printf("epoch:      %d (event seq %d)\n", st.Epoch, st.EventSeq)
	if st.Store != "" {
		fmt.Printf("store:      %s\n", st.Store)
	}
	fmt.Printf("leases:     %d granted, %d expired\n", st.LeasesGranted, st.LeasesExpired)
	for _, l := range st.Leases {
		fmt.Printf("  %-10s %-16s [%d,%d) %d left, ttl %.0fs\n",
			l.LeaseID, l.Worker, l.Lo, l.Hi, l.Remaining, l.TTLSeconds)
	}
	if len(st.Subscribers) > 0 {
		fmt.Printf("subscribers:\n")
		for _, s := range st.Subscribers {
			fmt.Printf("  #%d sent %d, dropped %d\n", s.ID, s.Sent, s.Dropped)
		}
	}
	if st.Progress != "" {
		fmt.Printf("progress:   %s\n", st.Progress)
	}
	return nil
}
