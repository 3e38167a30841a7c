package mpi

// Heartbeat-based failure detection. A heartbeat monitor is one goroutine
// per World that periodically samples the death mask and link state into an
// atomic snapshot ranks can read without synchronising with each other.
//
// Isolation from the quiescence detector (by construction, and pinned by
// TestHeartbeatDoesNotAffectDeadlockVerdict): the monitor NEVER touches the
// quiescence counters (blocked/finished/failed, delivered/absorbed), and the
// supervisor's fin+blk == size arithmetic counts only rank goroutines — so
// heartbeat timers and channel operations can neither hide a genuine
// deadlock (by faking a message) nor manufacture one (by being counted as a
// blocked rank). Link-fault campaigns therefore classify slow-but-live runs
// and true deadlocks identically with or without heartbeats running.
//
// The monitor's view is for liveness *monitoring*; deterministic
// reorganization decisions in the resilient zoo derive from AliveAtStart
// and RecvOrFail instead, which do not depend on wall-clock sampling.

import (
	"sync/atomic"
	"time"
)

// defaultHeartbeatPeriod is short enough that a monitor observes several
// beats even in a short run.
const defaultHeartbeatPeriod = 200 * time.Microsecond

// heartbeat is the per-World monitor state.
type heartbeat struct {
	period time.Duration
	stop   chan struct{}
	done   chan struct{}

	beats atomic.Int64 // completed sampling ticks
	live  atomic.Int64 // ranks alive at the last sample
	links atomic.Int64 // links down at the last sample
}

// StartHeartbeat starts the world's failure-detection monitor if it is not
// already running; subsequent calls (from any rank) are no-ops, so every
// rank of a resilient collective may call it unconditionally. period <= 0
// selects the default.
func (r *Rank) StartHeartbeat(period time.Duration) {
	if r.world.rec != nil {
		// The monitor samples wall-clock time; its observations cannot be
		// reproduced from a tape.
		r.world.rec.poison("heartbeat failure detector")
	}
	r.world.startHeartbeat(period)
}

// HeartbeatLive returns the number of live ranks at the monitor's last
// sample, or the world size when no monitor is running (or none has ticked
// yet). Time-varying: monitoring only.
func (r *Rank) HeartbeatLive() int {
	w := r.world
	w.hbMu.Lock()
	hb := w.hb
	w.hbMu.Unlock()
	if hb == nil || hb.beats.Load() == 0 {
		return w.size
	}
	return int(hb.live.Load())
}

// HeartbeatBeats returns how many sampling ticks the monitor has completed
// (0 when none is running).
func (r *Rank) HeartbeatBeats() int64 {
	w := r.world
	w.hbMu.Lock()
	hb := w.hb
	w.hbMu.Unlock()
	if hb == nil {
		return 0
	}
	return hb.beats.Load()
}

func (w *World) startHeartbeat(period time.Duration) {
	if period <= 0 {
		period = defaultHeartbeatPeriod
	}
	w.hbMu.Lock()
	defer w.hbMu.Unlock()
	if w.hb != nil {
		return
	}
	hb := &heartbeat{
		period: period,
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	w.hb = hb
	go w.heartbeatLoop(hb)
}

// heartbeatLoop samples the death mask and link state until stopped. It
// deliberately reads only World-level state (never rank internals) and
// never writes the quiescence counters.
func (w *World) heartbeatLoop(hb *heartbeat) {
	defer close(hb.done)
	tick := time.NewTicker(hb.period)
	defer tick.Stop()
	for {
		select {
		case <-hb.stop:
			return
		case <-w.done:
			return
		case <-tick.C:
			live := int64(w.size)
			if w.faulty {
				live = 0
				for i := range w.dead {
					if !w.dead[i].Load() {
						live++
					}
				}
			}
			hb.live.Store(live)
			if w.net != nil {
				hb.links.Store(int64(w.net.LinksDown()))
			}
			hb.beats.Add(1)
		}
	}
}

// stopHeartbeat signals the monitor (if any) and joins it. Called by Run
// after every rank goroutine has been joined, before the shell is recycled.
func (w *World) stopHeartbeat() {
	w.hbMu.Lock()
	hb := w.hb
	w.hb = nil
	w.hbMu.Unlock()
	if hb == nil {
		return
	}
	close(hb.stop)
	<-hb.done
}
