package dist_test

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/fastfit/fastfit/internal/apps/all"
	"github.com/fastfit/fastfit/internal/core"
	"github.com/fastfit/fastfit/internal/dist"
)

// sleepRecorder is an injected RetryPolicy.Sleep that records every backoff
// delay instead of waiting it out — tests observe the exact backoff
// schedule with no real time passing.
type sleepRecorder struct {
	mu     sync.Mutex
	delays []time.Duration
}

func (sr *sleepRecorder) sleep(ctx context.Context, d time.Duration) bool {
	sr.mu.Lock()
	sr.delays = append(sr.delays, d)
	sr.mu.Unlock()
	return ctx.Err() == nil
}

func (sr *sleepRecorder) recorded() []time.Duration {
	sr.mu.Lock()
	defer sr.mu.Unlock()
	return append([]time.Duration{}, sr.delays...)
}

// recordedRetry is the deterministic test policy: Jitter pinned to 0.5
// makes every delay exactly 3/4 of the raw exponential step — with Base
// 10ms and Max 80ms the schedule is 7.5, 15, 30, 60, 60... ms.
func recordedRetry(sr *sleepRecorder, attempts int) dist.RetryPolicy {
	return dist.RetryPolicy{
		Base:     10 * time.Millisecond,
		Max:      80 * time.Millisecond,
		Attempts: attempts,
		Jitter:   func() float64 { return 0.5 },
		Sleep:    sr.sleep,
	}
}

// flakyHandler fails every request whose ordinal falls in [failFrom,
// failTo): even ordinals get a 503, odd ordinals get the TCP connection
// yanked mid-request — the two transient failure shapes a restarting
// coordinator produces.
type flakyHandler struct {
	next     http.Handler
	mu       sync.Mutex
	ordinal  int
	failFrom int
	failTo   int
	failed   int
}

func (f *flakyHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	f.mu.Lock()
	n := f.ordinal
	f.ordinal++
	inWindow := n >= f.failFrom && n < f.failTo
	if inWindow {
		f.failed++
	}
	f.mu.Unlock()
	if !inWindow {
		f.next.ServeHTTP(w, r)
		return
	}
	if n%2 == 0 {
		http.Error(w, "restarting", http.StatusServiceUnavailable)
		return
	}
	hj, ok := w.(http.Hijacker)
	if !ok {
		http.Error(w, "restarting", http.StatusServiceUnavailable)
		return
	}
	conn, _, err := hj.Hijack()
	if err == nil {
		conn.Close() // drop with no HTTP reply at all
	}
}

// TestClientBackoffSchedule pins the exact deterministic backoff schedule:
// three consecutive 503s before success must produce exactly the 7.5, 15,
// 30 ms delays — growing, jittered, never zero (no busy-loop).
func TestClientBackoffSchedule(t *testing.T) {
	var mu sync.Mutex
	fails := 3
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		if fails > 0 {
			fails--
			http.Error(w, "restarting", http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte(`{"fingerprint":"fp","points":1,"epoch":1,"eventSeq":0,"phase":"measure"}`))
	}))
	defer srv.Close()

	sr := &sleepRecorder{}
	cl := dist.NewClient(srv.URL, nil).WithRetry(recordedRetry(sr, 10))
	if _, err := cl.Status(context.Background()); err != nil {
		t.Fatalf("status after transient 503s: %v", err)
	}
	want := []time.Duration{
		7500 * time.Microsecond,
		15 * time.Millisecond,
		30 * time.Millisecond,
	}
	got := sr.recorded()
	if len(got) != len(want) {
		t.Fatalf("recorded %d backoff delays %v, want %v", len(got), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("delay %d = %v, want %v", i, got[i], want[i])
		}
	}
}

// TestClientBackoffExhaustion pins the failure side: a coordinator that
// never comes back yields ErrUnavailable after exactly Attempts tries,
// with a capped schedule (60ms ceiling under the test policy) in between.
func TestClientBackoffExhaustion(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "gone", http.StatusServiceUnavailable)
	}))
	defer srv.Close()

	sr := &sleepRecorder{}
	cl := dist.NewClient(srv.URL, nil).WithRetry(recordedRetry(sr, 6))
	_, err := cl.Status(context.Background())
	if !errors.Is(err, dist.ErrUnavailable) {
		t.Fatalf("got %v, want ErrUnavailable", err)
	}
	got := sr.recorded()
	if len(got) != 5 { // Attempts-1 sleeps between 6 tries
		t.Fatalf("recorded %d delays %v, want 5", len(got), got)
	}
	for i, d := range got {
		if d < 7500*time.Microsecond {
			t.Errorf("delay %d = %v: too short, the client busy-looped", i, d)
		}
		if d > 60*time.Millisecond {
			t.Errorf("delay %d = %v exceeds the jittered 60ms cap", i, d)
		}
	}
	if got[len(got)-1] != 60*time.Millisecond {
		t.Errorf("final delay %v, want the capped 60ms", got[len(got)-1])
	}
}

// TestClientNoRetryOnClientError pins that 4xx replies are never retried:
// they are the caller's bug, and backing off cannot fix them. 413 is the
// coordinator's answer to a body over its limit.
func TestClientNoRetryOnClientError(t *testing.T) {
	for _, code := range []int{http.StatusConflict, http.StatusRequestEntityTooLarge} {
		var mu sync.Mutex
		calls := 0
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			mu.Lock()
			calls++
			mu.Unlock()
			http.Error(w, "refused", code)
		}))
		sr := &sleepRecorder{}
		cl := dist.NewClient(srv.URL, nil).WithRetry(recordedRetry(sr, 10))
		_, err := cl.Status(context.Background())
		srv.Close()
		if err == nil {
			t.Fatalf("%d reply succeeded", code)
		}
		if errors.Is(err, dist.ErrUnavailable) {
			t.Fatalf("%d surfaced as ErrUnavailable: %v", code, err)
		}
		if calls != 1 {
			t.Errorf("%d was retried: %d requests", code, calls)
		}
		if len(sr.recorded()) != 0 {
			t.Errorf("%d triggered backoff sleeps: %v", code, sr.recorded())
		}
	}
}

// repeatByte is an endless reader of one byte value: a request body of any
// size, generated as it is sent.
type repeatByte byte

func (b repeatByte) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(b)
	}
	return len(p), nil
}

// TestOversizedBodyRefused: a request body over the coordinator's 64 MiB
// limit is refused whole with 413 naming the limit. The body is a JSON
// string that closes just past the limit, so a body cut at the limit would
// be answered 400 as a syntax error instead.
func TestOversizedBodyRefused(t *testing.T) {
	coord, err := dist.NewCoordinator(testEngine(t, testOptions(1)), dist.CoordinatorOptions{LeaseSize: 4})
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()
	for _, path := range []string{"/v1/lease", "/v1/journal"} {
		body := io.MultiReader(strings.NewReader(`{"worker":"`), io.LimitReader(repeatByte('a'), 64<<20), strings.NewReader(`"}`))
		resp, err := http.Post(srv.URL+path, "application/json", body)
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge || !strings.Contains(string(msg), "64 MiB") {
			t.Errorf("POST %s with a body over the limit: %d %q, want 413 naming the 64 MiB limit", path, resp.StatusCode, msg)
		}
	}
}

// TestWorkerRidesOutFlakyCoordinator runs a full campaign through a
// coordinator that fails a window of 8 consecutive requests (alternating
// 503s and dropped connections) mid-campaign. The worker must back off,
// never busy-loop, complete the campaign, and the result must stay
// byte-identical to a serial run — the outage is invisible in the output.
func TestWorkerRidesOutFlakyCoordinator(t *testing.T) {
	opts := testOptions(8)
	serial := runSerial(t, opts)

	ckpt := filepath.Join(t.TempDir(), "merged.ckpt")
	coord, err := dist.NewCoordinator(testEngine(t, opts), dist.CoordinatorOptions{
		LeaseSize:  4,
		Supervisor: core.SupervisorOptions{Workers: 1, Checkpoint: ckpt},
	})
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	// The window starts a few requests in, after the worker has fetched the
	// spec and taken its first lease, so the outage lands mid-campaign.
	flaky := &flakyHandler{next: coord.Handler(), failFrom: 5, failTo: 13}
	srv := httptest.NewServer(flaky)
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	sr := &sleepRecorder{}
	if err := dist.RunWorker(ctx, srv.URL, dist.WorkerOptions{
		Name:         "patient",
		Lookup:       all.Lookup,
		Workers:      1,
		BatchSize:    2,
		PollInterval: 5 * time.Millisecond,
		Retry:        recordedRetry(sr, 20),
	}); err != nil {
		t.Fatalf("worker through flaky coordinator: %v", err)
	}
	res, err := coord.Result(ctx)
	if err != nil {
		t.Fatalf("merge: %v", err)
	}

	flaky.mu.Lock()
	failed := flaky.failed
	flaky.mu.Unlock()
	if failed == 0 {
		t.Fatal("failure window never fired — the test exercised nothing")
	}
	delays := sr.recorded()
	if len(delays) == 0 {
		t.Fatal("worker retried without ever backing off")
	}
	// Every delay comes off the deterministic 7.5→15→30→60ms schedule; any
	// other value means jitter/cap arithmetic changed, zero means busy-loop.
	allowed := map[time.Duration]bool{
		7500 * time.Microsecond: true,
		15 * time.Millisecond:   true,
		30 * time.Millisecond:   true,
		60 * time.Millisecond:   true,
	}
	grew := false
	for i, d := range delays {
		if !allowed[d] {
			t.Errorf("delay %d = %v off the deterministic schedule", i, d)
		}
		if d > 7500*time.Microsecond {
			grew = true
		}
	}
	if !grew {
		t.Error("backoff never grew past the base delay across the outage window")
	}
	compareLegs(t, "flaky-coordinator", serial, campaignLeg{
		json:    jsonBytes(t, res.CampaignResult),
		journal: readFile(t, ckpt),
	})
}
