package sim

import (
	"fmt"
	"sync"
)

// ShardedEngine partitions one simulation across N event queues — each
// shard a plain *Engine — and advances them in lockstep conservative
// time windows, the classic conservative parallel-DES scheme:
//
//   - Model state is partitioned: every resource and every event touches
//     exactly one shard, and events on a shard are scheduled only from
//     code running on that shard.
//   - Cross-shard interaction goes through Post, which routes the call
//     into a per-source mailbox instead of the destination queue. The
//     delay of a cross-shard post must be at least the engine's window —
//     the lookahead bound, derived from the minimum model latency
//     separating two shards (the ECC pipeline in front of the SoC hop, a
//     control-plane message, a mesh link traversal). Post panics on a
//     shorter delay: that is a partition bug, and silently serializing
//     would hide it.
//   - Run advances all shards window by window: every shard executes its
//     events with timestamps inside [T, T+W) in parallel, then a barrier
//     drains the mailboxes. Because every cross-shard post made inside
//     the window carries at least W of delay, its target timestamp lands
//     at or beyond the next window — no shard can ever receive an event
//     for a time it has already passed.
//
// Determinism: within a window, shards execute disjoint queues, so the
// goroutine interleaving is unobservable. Mailbox deliveries happen at
// the barrier in (window, source shard, post order) — a total order —
// and each lands in the destination queue with an ordinary sequence
// number, so ties resolve identically on every run. A ShardedEngine
// run is bit-reproducible for a fixed shard count and partition.
//
// A model living entirely on one shard degenerates gracefully: whenever
// exactly one shard has pending events, Run drains it at full speed with
// no window bookkeeping (cut short only by that shard's first cross-shard
// post, via Engine.Interrupt, which is what keeps the conservative bound
// intact). A single-shard ShardedEngine is therefore byte-identical to —
// and exactly as fast as — the serial engine it wraps.
type ShardedEngine struct {
	window Time
	shards []*Engine
	outs   [][]crossPost // outs[src]: posts made by shard src this window
	// postsBy counts lifetime cross-shard posts per source shard. Kept
	// per-shard because Post runs on the posting shard's goroutine
	// during a window; only the barrier (and idle accessors) sum it.
	postsBy []int64
	windows int64 // lifetime lockstep window count
	// critPath accumulates, per lockstep window, the event count of the
	// busiest shard — the critical path of the partitioned run. Total
	// events divided by this is the speedup an ideal machine could
	// extract from the partition, independent of host core count.
	critPath  int64
	running   bool
	exclusive int // shard draining in exclusive mode, -1 otherwise
}

// crossPost is one mailbox entry: an event bound for another shard,
// carrying its absolute target time.
type crossPost struct {
	dst int
	at  Time
	fn  func()
}

// NewShardedEngine creates n shards advancing in lockstep windows of
// width window. The window is the conservative lookahead bound: no
// cross-shard interaction may carry less delay. A one-shard engine is
// valid (and runs serially with zero overhead); the window must still be
// positive so a later SetWindow or partition change cannot legitimize a
// zero bound by accident.
func NewShardedEngine(n int, window Time) *ShardedEngine {
	if n <= 0 {
		panic(fmt.Sprintf("sim: sharded engine needs at least 1 shard, got %d", n))
	}
	if window <= 0 {
		panic(fmt.Sprintf("sim: non-positive lookahead window %v", window))
	}
	se := &ShardedEngine{
		window:    window,
		shards:    make([]*Engine, n),
		outs:      make([][]crossPost, n),
		postsBy:   make([]int64, n),
		exclusive: -1,
	}
	for i := range se.shards {
		se.shards[i] = NewEngine()
	}
	return se
}

// NumShards returns the shard count.
func (se *ShardedEngine) NumShards() int { return len(se.shards) }

// Shard returns shard i's engine for model wiring. All state owned by a
// shard must schedule exclusively through its engine.
func (se *ShardedEngine) Shard(i int) *Engine { return se.shards[i] }

// Window returns the conservative lookahead bound.
func (se *ShardedEngine) Window() Time { return se.window }

// SetWindow replaces the lookahead bound, for callers that can only
// derive it after construction (a fabric built around the shard
// engines). It panics mid-run or on a non-positive bound.
func (se *ShardedEngine) SetWindow(w Time) {
	if se.running {
		panic("sim: SetWindow during Run")
	}
	if w <= 0 {
		panic(fmt.Sprintf("sim: non-positive lookahead window %v", w))
	}
	se.window = w
}

// CrossPosts returns the lifetime number of cross-shard posts routed
// through the mailbox. Call it only while the engine is idle (between
// Runs or at a barrier) — the per-shard tallies it sums are written by
// the posting shards' goroutines mid-window.
func (se *ShardedEngine) CrossPosts() int64 {
	var n int64
	for _, p := range se.postsBy {
		n += p
	}
	return n
}

// Windows returns the number of lockstep windows executed (exclusive
// full-speed drains count zero — they have no barrier).
func (se *ShardedEngine) Windows() int64 { return se.windows }

// CriticalPathEvents returns the sum over lockstep windows of the
// busiest shard's event count, plus every event executed in exclusive
// drains (which are serial by definition). EventsFired divided by this
// is the parallelism the partition exposed — the speedup ceiling on an
// ideal host, independent of actual core count. Deterministic for a
// fixed shard count.
func (se *ShardedEngine) CriticalPathEvents() int64 { return se.critPath }

// EventsFired returns the events executed across all shards.
func (se *ShardedEngine) EventsFired() int64 {
	var n int64
	for _, sh := range se.shards {
		n += sh.EventsFired()
	}
	return n
}

// Pending returns queued events across all shards plus undelivered
// mailbox posts.
func (se *ShardedEngine) Pending() int {
	n := 0
	for _, sh := range se.shards {
		n += sh.Pending()
	}
	for _, out := range se.outs {
		n += len(out)
	}
	return n
}

// Now returns the latest shard clock — the simulation time of the last
// event executed anywhere.
func (se *ShardedEngine) Now() Time {
	var t Time
	for _, sh := range se.shards {
		if sh.Now() > t {
			t = sh.Now()
		}
	}
	return t
}

// Post schedules fn on shard dst after delay d, measured on shard src's
// clock. Same-shard posts are ordinary Schedule calls. A cross-shard
// post must carry at least the lookahead window of delay; it is routed
// through the mailbox and applied at the next window barrier in
// (window, source shard, post order) — a deterministic total order.
// Post must be called from code running on shard src (or before Run
// starts); that is the same single-threaded discipline Engine.Schedule
// already requires.
func (se *ShardedEngine) Post(src, dst int, d Time, fn func()) {
	if src < 0 || src >= len(se.shards) || dst < 0 || dst >= len(se.shards) {
		panic(fmt.Sprintf("sim: post %d->%d outside %d shards", src, dst, len(se.shards)))
	}
	if src == dst {
		se.shards[src].Schedule(d, fn)
		return
	}
	if d < se.window {
		panic(fmt.Sprintf("sim: cross-shard post %d->%d with delay %v under the %v lookahead window — the partition placed a faster interaction across shards than its bound allows",
			src, dst, d, se.window))
	}
	if fn == nil {
		panic("sim: nil cross-shard event function")
	}
	se.postsBy[src]++
	se.outs[src] = append(se.outs[src], crossPost{dst: dst, at: se.shards[src].Now() + d, fn: fn})
	if se.exclusive == src {
		// An exclusive drain just produced its first cross-shard message:
		// stop after this event so the destination shard is woken before
		// this shard runs past times it might yet need to interact at.
		se.shards[src].Interrupt()
	}
}

// deliver drains every mailbox into the destination queues, in source
// shard order with each source's posts kept in post order. Every target
// time is at or beyond every destination clock (the conservative bound),
// so At never sees the past.
func (se *ShardedEngine) deliver() {
	for src := range se.outs {
		for _, p := range se.outs[src] {
			se.shards[p.dst].At(p.at, p.fn)
		}
		se.outs[src] = se.outs[src][:0]
	}
}

// active returns the shards with pending events and the earliest pending
// timestamp across them.
func (se *ShardedEngine) active() (ids []int, earliest Time) {
	earliest = -1
	for i, sh := range se.shards {
		ev, _ := sh.peek()
		if ev == nil {
			continue
		}
		ids = append(ids, i)
		if earliest < 0 || ev.at < earliest {
			earliest = ev.at
		}
	}
	return ids, earliest
}

// Run executes the simulation to completion — all shards drained, all
// mailboxes empty — and returns the clock of the last event executed.
// One shard: plain serial Run. Several active shards: lockstep windows
// of width Window, each shard on its own goroutine, mailbox barrier in
// between. Exactly one active shard: exclusive full-speed drain until
// it finishes or makes its first cross-shard post.
func (se *ShardedEngine) Run() Time {
	if se.running {
		panic("sim: ShardedEngine.Run re-entered")
	}
	se.running = true
	defer func() { se.running = false }()

	if len(se.shards) == 1 {
		before := se.shards[0].EventsFired()
		t := se.shards[0].Run()
		se.critPath += se.shards[0].EventsFired() - before
		return t
	}

	var wg sync.WaitGroup
	for {
		se.deliver()
		ids, earliest := se.active()
		if len(ids) == 0 {
			break
		}
		if len(ids) == 1 {
			// Only one shard is live: no peer can message it, so the
			// lockstep cadence adds nothing. Drain it flat out; Post
			// interrupts the drain the moment it would need a barrier.
			j := ids[0]
			se.exclusive = j
			se.critPath += se.shards[j].RunBefore(maxTime)
			se.exclusive = -1
			continue
		}
		end := earliest + se.window
		// Shards 1..n-1 run the window on worker goroutines; shard 0 runs
		// on this one. Engines are disjoint, so the only synchronization
		// needed is the fork and the join.
		fired := make([]int64, len(ids))
		for k, j := range ids[1:] {
			wg.Add(1)
			go func(slot, shard int) {
				defer wg.Done()
				fired[slot] = se.shards[shard].RunBefore(end)
			}(k+1, j)
		}
		fired[0] = se.shards[ids[0]].RunBefore(end)
		wg.Wait()
		se.windows++
		var worst int64
		for _, n := range fired {
			if n > worst {
				worst = n
			}
		}
		se.critPath += worst
	}
	for _, sh := range se.shards {
		sh.FlushEventsFired()
	}
	return se.Now()
}

// maxTime is the largest representable simulation time, the "no limit"
// bound of an exclusive drain.
const maxTime = Time(1<<63 - 1)
