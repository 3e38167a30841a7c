package dist

import (
	"context"
	"fmt"
	"maps"
	"sort"
	"sync"
	"time"

	"github.com/fastfit/fastfit/internal/core"
)

// CoordinatorOptions configures the control plane.
type CoordinatorOptions struct {
	// LeaseTTL is how long a shard may hold a lease without renewing it.
	// Zero means 30s.
	LeaseTTL time.Duration
	// LeaseSize caps the indexes handed out per lease. Zero means 64.
	LeaseSize int
	// Lookahead is how far past the ML replay frontier the coordinator
	// leases speculatively: the frontier only says which prefix the learn
	// loop provably needs next, so a little overshoot keeps shards busy
	// while the frontier advances. Speculative records the loop turns out
	// not to need are discarded at merge. Zero means 16; ignored on
	// non-ML campaigns (the whole space is needed). Negative means none.
	Lookahead int
	// Now is the lease clock, injectable for tests. Nil means time.Now.
	// Expiry is reaped lazily on API calls — no background timers, so a
	// fake clock fully controls lease death.
	Now func() time.Time
	// Store, when non-empty, is the campaign's durable state directory: a
	// write-ahead log there records the spec at open and every applied
	// batch of records and quarantines before it is acknowledged, so
	// a SIGKILLed coordinator recovers (RecoverCoordinator) with the same
	// record store it crashed with. Empty keeps the coordinator in-memory
	// only, exactly as before.
	Store string
	// Supervisor configures the merge step: Checkpoint is where the merged
	// journal is written (empty keeps the merge journal-less), and the
	// retry/watchdog knobs must match the serial run being reproduced.
	// Workers is forced to 1 by the merge.
	Supervisor core.SupervisorOptions
	// Observer, when non-nil, additionally receives the coordinator's
	// live event feed (the same events the SSE hub publishes).
	Observer core.Observer
}

func (o CoordinatorOptions) withDefaults() CoordinatorOptions {
	if o.LeaseTTL <= 0 {
		o.LeaseTTL = 30 * time.Second
	}
	if o.LeaseSize <= 0 {
		o.LeaseSize = 64
	}
	if o.Lookahead == 0 {
		o.Lookahead = 16
	}
	if o.Lookahead < 0 {
		o.Lookahead = 0
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	return o
}

// lease is one outstanding range grant.
type lease struct {
	id       string
	worker   string
	lo, hi   int
	deadline time.Time
}

// Coordinator is the campaign control plane: it owns the record store,
// grants and reaps leases, applies journal batches, recomputes the ML
// lease frontier, publishes the live event feed and performs the final
// deterministic merge.
type Coordinator struct {
	eng   *core.Engine // quiet engine: planning, frontier replays, the merge
	opts  CoordinatorOptions
	spec  CampaignSpec
	hub   *Hub
	stats *core.StreamStats
	wal   *WAL // nil without a Store
	epoch int  // process generation: 1 fresh, +1 per recovery

	mu            sync.Mutex
	records       map[int]core.PointRecord
	quar          map[int]core.QuarantinedPoint
	leases        map[string]*lease
	nextLease     int
	seq           int // event-feed frame counter
	needed        int // lease frontier: indexes [0,needed) are wanted
	frontierDone  bool
	leasesGranted int
	leasesExpired int
	arrivals      int // records+quarantines applied, in arrival order
	complete      bool
	done          chan struct{} // closed once the record store is complete
	// workers maps every worker name that has asked for a lease to whether
	// it has since been answered Finished; drained is closed once the
	// campaign is complete and every one of them has (Service.Shutdown).
	workers map[string]bool
	drained chan struct{}

	mergeOnce sync.Once
	merged    *core.SupervisedResult
	mergeErr  error
}

// NewCoordinator plans the campaign on the given engine (which must have
// no Observer attached — the coordinator authors its own feed) and opens
// it for leasing. The engine's profile run executes here. With
// Options.Store set, a fresh write-ahead log is created there; a Store
// that already holds a WAL is refused — recover it with
// RecoverCoordinator instead.
func NewCoordinator(eng *core.Engine, opts CoordinatorOptions) (*Coordinator, error) {
	info, err := eng.PlanInfo()
	if err != nil {
		return nil, fmt.Errorf("planning campaign: %w", err)
	}
	specOpts := eng.Options()
	specOpts.Observer = nil // interfaces don't cross the wire
	spec := CampaignSpec{
		App:         eng.App().Name(),
		Config:      eng.Config(),
		Options:     specOpts,
		Fingerprint: info.Fingerprint,
		Points:      info.Points,
	}
	opts = opts.withDefaults()
	var wal *WAL
	if opts.Store != "" {
		if wal, err = CreateWAL(opts.Store, spec); err != nil {
			return nil, err
		}
	}
	return newCoordinator(eng, opts, spec, wal, 1, map[int]core.PointRecord{}, map[int]core.QuarantinedPoint{})
}

// newCoordinator is the construction path NewCoordinator and
// RecoverCoordinator share: opts must already have defaults applied, and
// records/quars (empty for a fresh campaign) seed the record store.
func newCoordinator(eng *core.Engine, opts CoordinatorOptions, spec CampaignSpec, wal *WAL, epoch int,
	records map[int]core.PointRecord, quars map[int]core.QuarantinedPoint) (*Coordinator, error) {
	c := &Coordinator{
		eng:     eng,
		opts:    opts,
		spec:    spec,
		hub:     NewHub(),
		stats:   core.NewStreamStats(),
		wal:     wal,
		epoch:   epoch,
		records: records,
		quar:    quars,
		leases:  map[string]*lease{},
		done:    make(chan struct{}),
		workers: map[string]bool{},
		drained: make(chan struct{}),
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, ev := range eng.OpeningEvents() {
		c.emitLocked(ev)
	}
	c.emitLocked(core.PhaseChanged{Phase: core.CampaignInjecting, Points: spec.Points})
	// A recovered record store replays on the fresh feed the way
	// checkpoint-restored points do on a resumed serial campaign, so a
	// reattached dashboard tallies the same progress.
	for _, idx := range sortedKeys(c.records) {
		rec := c.records[idx]
		c.arrivals++
		c.emitLocked(core.PointCompleted{Index: rec.Index, Result: rec.Result,
			Completed: c.arrivals, Total: c.spec.Points, FromCheckpoint: true})
	}
	for _, idx := range sortedKeys(c.quar) {
		c.arrivals++
		c.emitLocked(core.PointQuarantined{Point: c.quar[idx], Completed: c.arrivals,
			Total: c.spec.Points, FromCheckpoint: true})
	}
	if err := c.refrontierLocked(); err != nil {
		return nil, err
	}
	c.checkCompleteLocked()
	return c, nil
}

// sortedKeys returns a map's index keys in ascending order.
func sortedKeys[V any](m map[int]V) []int {
	idxs := make([]int, 0, len(m))
	for idx := range m {
		idxs = append(idxs, idx)
	}
	sort.Ints(idxs)
	return idxs
}

// Spec returns the campaign description served to workers.
func (c *Coordinator) Spec() CampaignSpec { return c.spec }

// Hub exposes the event-feed fan-out (tests and embedded dashboards
// subscribe directly; remote consumers use the /v1/events SSE endpoint).
func (c *Coordinator) Hub() *Hub { return c.hub }

// emitLocked publishes one event on the coordinator's feed: a
// seq-numbered wire frame to the SSE hub, the typed event to StreamStats
// and the optional extra observer. Callers hold c.mu, which is what makes
// seq gap-free.
func (c *Coordinator) emitLocked(ev core.Event) {
	c.seq++
	c.stats.OnEvent(ev)
	if c.opts.Observer != nil {
		c.opts.Observer.OnEvent(ev)
	}
	if frame, err := core.EventEnvelope(c.seq, ev); err == nil {
		c.hub.Publish(c.seq, frame)
	}
}

// reapLocked expires every lease whose deadline has passed, freeing its
// unacked range for re-leasing. Called lazily from every API entry point.
func (c *Coordinator) reapLocked() {
	now := c.opts.Now()
	for id, l := range c.leases {
		if now.After(l.deadline) {
			delete(c.leases, id)
			c.leasesExpired++
			c.emitLocked(core.ShardLease{Kind: "expired", Lease: id, Worker: l.worker, Lo: l.lo, Hi: l.hi})
		}
	}
}

// refrontierLocked recomputes how much of the index space is wanted. On
// non-ML campaigns that is the whole space. On ML campaigns the learn
// loop is replayed against the records collected so far (a pure function
// of seed + results, so coordinator and merger always agree): while the
// replay is blocked on unmeasured indexes, the frontier plus Lookahead is
// wanted; once the replay runs to its stopping decision, exactly the
// measured prefix is.
func (c *Coordinator) refrontierLocked() error {
	if !c.spec.Options.ML.Pruning {
		c.needed, c.frontierDone = c.spec.Points, true
		return nil
	}
	needed, finished, err := c.eng.MLFrontier(func(idx int) (*core.PointResult, bool) {
		if rec, ok := c.records[idx]; ok {
			pr := rec.Result
			return &pr, true
		}
		if _, ok := c.quar[idx]; ok {
			return nil, true
		}
		return nil, false
	})
	if err != nil {
		return fmt.Errorf("ML frontier replay: %w", err)
	}
	if finished {
		c.needed = needed
	} else {
		c.needed = min(c.spec.Points, needed+c.opts.Lookahead)
	}
	c.frontierDone = finished
	return nil
}

// checkCompleteLocked closes the done channel once every wanted index is
// recorded or quarantined and the frontier is final.
func (c *Coordinator) checkCompleteLocked() {
	if c.complete || !c.frontierDone {
		return
	}
	for idx := 0; idx < c.needed; idx++ {
		if !c.settledLocked(idx) {
			return
		}
	}
	c.complete = true
	close(c.done)
	c.checkDrainedLocked()
}

// checkDrainedLocked closes drained once the campaign is complete and every
// worker that asked for a lease has been answered Finished.
func (c *Coordinator) checkDrainedLocked() {
	select {
	case <-c.drained:
		return
	default:
	}
	if !c.complete {
		return
	}
	for _, told := range c.workers {
		if !told {
			return
		}
	}
	close(c.drained)
}

// settledLocked reports whether idx is recorded or quarantined.
func (c *Coordinator) settledLocked(idx int) bool {
	_, ok := c.records[idx]
	if !ok {
		_, ok = c.quar[idx]
	}
	return ok
}

// coveredLocked reports whether idx is settled or inside an active lease.
func (c *Coordinator) coveredLocked(idx int) bool {
	if c.settledLocked(idx) {
		return true
	}
	for _, l := range c.leases {
		if idx >= l.lo && idx < l.hi {
			return true
		}
	}
	return false
}

// Lease grants the next open index range to a worker.
func (c *Coordinator) Lease(req LeaseRequest) (LeaseGrant, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if req.Fingerprint != "" && req.Fingerprint != c.spec.Fingerprint {
		return LeaseGrant{}, fmt.Errorf("worker %s planned fingerprint %s, campaign is %s",
			req.Worker, req.Fingerprint, c.spec.Fingerprint)
	}
	c.reapLocked()
	c.workers[req.Worker] = c.complete
	if c.complete {
		c.checkDrainedLocked()
		return LeaseGrant{Finished: true, Fingerprint: c.spec.Fingerprint, Total: c.spec.Points}, nil
	}
	// First wanted index that is neither settled nor under an active lease.
	lo := -1
	for idx := 0; idx < c.needed; idx++ {
		if !c.coveredLocked(idx) {
			lo = idx
			break
		}
	}
	if lo < 0 {
		// Everything wanted is settled or in flight; the ML frontier may
		// still advance when in-flight work lands.
		return LeaseGrant{NoWork: true, Fingerprint: c.spec.Fingerprint, Total: c.spec.Points}, nil
	}
	// Extend through settled holes (they become Skip) but never into
	// another active lease.
	hi, todo := lo, 0
	var skip []int
	for idx := lo; idx < c.needed && todo < c.opts.LeaseSize; idx++ {
		leased := false
		for _, l := range c.leases {
			if idx >= l.lo && idx < l.hi {
				leased = true
				break
			}
		}
		if leased {
			break
		}
		if c.settledLocked(idx) {
			skip = append(skip, idx)
		} else {
			todo++
		}
		hi = idx + 1
	}
	// The epoch prefix keeps lease IDs unique across coordinator
	// generations: a lease granted before a crash can never collide with
	// one granted after recovery, so a stale holder's renew/journal is
	// answered Expired (re-lease) instead of silently adopted.
	c.nextLease++
	id := fmt.Sprintf("lease-%d-%d", c.epoch, c.nextLease)
	c.leases[id] = &lease{id: id, worker: req.Worker, lo: lo, hi: hi,
		deadline: c.opts.Now().Add(c.opts.LeaseTTL)}
	c.leasesGranted++
	c.emitLocked(core.ShardLease{Kind: "granted", Lease: id, Worker: req.Worker, Lo: lo, Hi: hi})
	return LeaseGrant{
		LeaseID:     id,
		Lo:          lo,
		Hi:          hi,
		Skip:        skip,
		TTLSeconds:  c.opts.LeaseTTL.Seconds(),
		Fingerprint: c.spec.Fingerprint,
		Total:       c.spec.Points,
	}, nil
}

// Renew extends a lease's deadline, or reports it expired.
func (c *Coordinator) Renew(req RenewRequest) RenewReply {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reapLocked()
	l, ok := c.leases[req.LeaseID]
	if !ok {
		return RenewReply{Expired: true}
	}
	l.deadline = c.opts.Now().Add(c.opts.LeaseTTL)
	c.emitLocked(core.ShardLease{Kind: "renewed", Lease: l.id, Worker: l.worker, Lo: l.lo, Hi: l.hi})
	return RenewReply{TTLSeconds: c.opts.LeaseTTL.Seconds()}
}

// Journal applies one batch of shard records. Batches for expired or
// unknown leases are rejected whole (Expired reply): their range is being
// re-leased, and the determinism contract makes the re-measurement
// byte-identical, so nothing is lost. The batch lands by landing's rule,
// and with a Store what it newly settles goes to the write-ahead log
// *before* the in-memory store mutates or the shard is acked — a crash at
// any instant leaves the WAL a prefix of what workers were told was
// accepted.
func (c *Coordinator) Journal(batch JournalBatch, recs []core.PointRecord, quars []core.QuarantinedPoint) (JournalReply, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reapLocked()
	l, ok := c.leases[batch.LeaseID]
	if !ok {
		return JournalReply{Expired: true}, nil
	}
	for _, rec := range recs {
		if rec.Index < l.lo || rec.Index >= l.hi {
			return JournalReply{}, fmt.Errorf("lease %s: record index %d outside leased range [%d,%d)",
				l.id, rec.Index, l.lo, l.hi)
		}
	}
	for _, q := range quars {
		if q.Index < l.lo || q.Index >= l.hi {
			return JournalReply{}, fmt.Errorf("lease %s: quarantine index %d outside leased range [%d,%d)",
				l.id, q.Index, l.lo, l.hi)
		}
	}
	fresh, freshQ := landing(c.records, c.quar, recs, quars)
	if c.wal != nil && (len(fresh) > 0 || len(freshQ) > 0) {
		if err := c.wal.AppendBatch(l.id, l.worker, fresh, freshQ); err != nil {
			return JournalReply{}, err
		}
	}
	for _, rec := range fresh {
		c.records[rec.Index] = rec
		c.arrivals++
		c.emitLocked(core.PointCompleted{Index: rec.Index, Result: rec.Result,
			Completed: c.arrivals, Total: c.spec.Points})
	}
	for _, q := range freshQ {
		c.quar[q.Index] = q
		c.arrivals++
		c.emitLocked(core.PointQuarantined{Point: q, Completed: c.arrivals, Total: c.spec.Points})
	}
	acked := len(fresh) + len(freshQ)
	// Completed work extends the lease: a live streaming shard is not dead.
	// A range settled whole is released with the batch that settles it, not
	// with the shard's trailing Done batch, which may arrive after the
	// campaign has completed and merged; that batch is answered Expired.
	l.deadline = c.opts.Now().Add(c.opts.LeaseTTL)
	if batch.Done || c.rangeSettledLocked(l) {
		delete(c.leases, l.id)
		c.emitLocked(core.ShardLease{Kind: "completed", Lease: l.id, Worker: l.worker, Lo: l.lo, Hi: l.hi})
	}
	if acked > 0 && c.spec.Options.ML.Pruning {
		if err := c.refrontierLocked(); err != nil {
			return JournalReply{}, err
		}
	}
	c.checkCompleteLocked()
	return JournalReply{Acked: acked}, nil
}

// landing selects what a shard batch newly settles in a record store: the
// first write of an index wins, within the batch as across batches, and an
// index is settled once, whether by a record or by a quarantine. It is the
// one rule for a landing batch — the live journal endpoint applies it
// before the WAL append, and WAL replay applies it to every batch line —
// so a recovered store is the live one.
func landing(records map[int]core.PointRecord, quar map[int]core.QuarantinedPoint,
	recs []core.PointRecord, quars []core.QuarantinedPoint) (fresh []core.PointRecord, freshQ []core.QuarantinedPoint) {
	batch := make(map[int]bool, len(recs)+len(quars))
	isNew := func(idx int) bool {
		_, rec := records[idx]
		_, q := quar[idx]
		isNew := !rec && !q && !batch[idx]
		batch[idx] = true
		return isNew
	}
	for _, rec := range recs {
		if isNew(rec.Index) {
			fresh = append(fresh, rec)
		}
	}
	for _, q := range quars {
		if isNew(q.Index) {
			freshQ = append(freshQ, q)
		}
	}
	return fresh, freshQ
}

// rangeSettledLocked reports whether every index of l's range is settled.
func (c *Coordinator) rangeSettledLocked(l *lease) bool {
	for idx := l.lo; idx < l.hi; idx++ {
		if !c.settledLocked(idx) {
			return false
		}
	}
	return true
}

// Done is closed once the record store is complete; Result then merges.
func (c *Coordinator) Done() <-chan struct{} { return c.done }

// Result blocks until the record store is complete, then performs the
// deterministic merge (once — later calls return the same result). The
// merged journal is written to Supervisor.Checkpoint, and the feed closes
// with a CampaignFinished event summarising the merged run.
func (c *Coordinator) Result(ctx context.Context) (*core.SupervisedResult, error) {
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-c.done:
	}
	c.mergeOnce.Do(func() {
		c.mu.Lock()
		in := MergeInput{Records: maps.Clone(c.records), Quarantined: maps.Clone(c.quar)}
		supOpts := c.opts.Supervisor
		c.mu.Unlock()
		// The merge replays the single-process supervisor outside the lock:
		// ML training, prediction and refinement run for real here.
		merged, err := Merge(ctx, c.eng, in, supOpts)
		c.mu.Lock()
		c.merged, c.mergeErr = merged, err
		if err == nil && c.wal != nil {
			// The campaign is finished and its result persisted by the
			// caller; mark the log so recovery skips it instead of
			// re-serving a done campaign.
			if werr := c.wal.AppendMerged(); werr == nil {
				c.wal.Close()
			}
		}
		if err == nil {
			c.emitLocked(core.CampaignFinished{
				App:         merged.AppName,
				Injected:    merged.Injected,
				Predicted:   merged.PredictedN,
				Quarantined: len(merged.Quarantined),
				Counts:      core.OutcomeBreakdown(merged.Measured),
				Cancelled:   merged.Cancelled,
			})
		}
		c.mu.Unlock()
	})
	return c.merged, c.mergeErr
}

// Status reports the campaign's control-plane state.
func (c *Coordinator) Status() StatusReply {
	c.mu.Lock()
	c.reapLocked()
	now := c.opts.Now()
	st := StatusReply{
		App:           c.spec.App,
		Fingerprint:   c.spec.Fingerprint,
		Points:        c.spec.Points,
		Needed:        c.needed,
		FrontierDone:  c.frontierDone,
		Recorded:      len(c.records),
		Quarantined:   len(c.quar),
		Complete:      c.complete,
		Merged:        c.merged != nil,
		LeasesGranted: c.leasesGranted,
		LeasesExpired: c.leasesExpired,
		Epoch:         c.epoch,
		EventSeq:      c.seq,
	}
	if c.wal != nil {
		st.Store = c.wal.Path()
	}
	for _, l := range c.leases {
		remaining := 0
		for idx := l.lo; idx < l.hi; idx++ {
			if !c.settledLocked(idx) {
				remaining++
			}
		}
		st.Leases = append(st.Leases, LeaseStatus{
			LeaseID: l.id, Worker: l.worker, Lo: l.lo, Hi: l.hi,
			Remaining:  remaining,
			TTLSeconds: l.deadline.Sub(now).Seconds(),
		})
	}
	c.mu.Unlock()
	sort.Slice(st.Leases, func(i, j int) bool { return st.Leases[i].LeaseID < st.Leases[j].LeaseID })
	st.Progress = c.stats.Snapshot().ProgressLine()
	st.Subscribers = c.hub.Snapshot()
	return st
}
