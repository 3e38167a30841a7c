package dist_test

import (
	"bytes"
	"context"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/fastfit/fastfit/internal/apps/all"
	"github.com/fastfit/fastfit/internal/core"
	"github.com/fastfit/fastfit/internal/dist"
)

// serve starts an HTTP server for h on a loopback port.
func serve(t *testing.T, h http.Handler) (*http.Server, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: h}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return srv, "http://" + ln.Addr().String()
}

// TestShutdownWaitsForPollingShard: a shard that is polling for work when
// the campaign completes still hears that it is finished. Shard a holds the
// campaign's one lease; shard b asks while it does, is answered NoWork and
// polls. The server then stops the way `ffd serve` does after the merge,
// through Service.Shutdown, and both shards must return nil. b retries a
// refused connection only once, so a server that closed at the merge fails
// it at once.
func TestShutdownWaitsForPollingShard(t *testing.T) {
	svc := dist.NewService("", all.Lookup)
	coord, _, err := svc.Open(testEngine(t, testOptions(1)), dist.CoordinatorOptions{LeaseSize: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	// bAsked is closed once b has asked for a lease and been answered.
	bAsked := make(chan struct{})
	var once sync.Once
	h := svc.Handler()
	srv, url := serve(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		r.Body = io.NopCloser(bytes.NewReader(body))
		h.ServeHTTP(w, r)
		if strings.HasSuffix(r.URL.Path, "/lease") && bytes.Contains(body, []byte(`"worker":"b"`)) {
			once.Do(func() { close(bAsked) })
		}
	}))

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	aLeased := make(chan struct{})
	var aOnce sync.Once
	hold := core.ObserverFunc(func(core.Event) {
		aOnce.Do(func() {
			close(aLeased)
			<-bAsked // a keeps the lease until b has been told NoWork
		})
	})
	errs := make(map[string]error)
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := func(name string, obs core.Observer) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := dist.RunWorker(ctx, url, dist.WorkerOptions{
				Name: name, Lookup: all.Lookup, Workers: 1, Observer: obs,
				PollInterval: 20 * time.Millisecond,
				Retry:        dist.RetryPolicy{Base: time.Millisecond, Attempts: 2},
			})
			mu.Lock()
			errs[name] = err
			mu.Unlock()
		}()
	}
	start("a", hold)
	<-aLeased
	start("b", nil)

	if _, err := coord.Result(ctx); err != nil {
		t.Fatalf("merge: %v", err)
	}
	if n := coord.Status().LeasesGranted; n != 1 {
		t.Fatalf("%d leases granted; want a's one, with b polling", n)
	}
	t0 := time.Now()
	if err := svc.Shutdown(ctx, srv); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if d := time.Since(t0); d > 10*time.Second {
		t.Errorf("Shutdown took %v: it waited out the lease TTL although every shard was told", d)
	}
	wg.Wait()
	for _, name := range []string{"a", "b"} {
		if errs[name] != nil {
			t.Errorf("worker %s: %v", name, errs[name])
		}
	}
}

// TestShutdownWaitsAtMostOneLeaseTTL: a shard that leased and then died is
// never told the campaign is finished; Shutdown stops waiting for it after
// one lease TTL.
func TestShutdownWaitsAtMostOneLeaseTTL(t *testing.T) {
	const ttl = 300 * time.Millisecond
	svc := dist.NewService("", all.Lookup)
	coord, _, err := svc.Open(testEngine(t, testOptions(1)), dist.CoordinatorOptions{LeaseTTL: ttl})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := coord.Lease(dist.LeaseRequest{Worker: "ghost"}); err != nil {
		t.Fatal(err)
	}
	srv, _ := serve(t, svc.Handler())
	t0 := time.Now()
	if err := svc.Shutdown(context.Background(), srv); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if d := time.Since(t0); d < ttl || d > ttl+5*time.Second {
		t.Errorf("Shutdown returned after %v; want one lease TTL (%v)", d, ttl)
	}
}
