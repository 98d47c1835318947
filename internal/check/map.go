package check

import (
	"fmt"
	"sort"

	"repro/internal/flash"
)

// mapState is the map-unit ledger: a mirror of the FMMU map cache plus
// the translation-page conservation record. The mirror is driven purely
// by the ftl.MapSink hooks, so any divergence between what the map unit
// announces and what a coherent cache could have done surfaces as a
// violation — including divergence introduced by bugs in the map unit's
// own bookkeeping, which is the point.
type mapState struct {
	entries  int
	resident map[int]int64       // t -> version the cache claims to hold
	dirty    map[int]bool        // t -> mirror of the entry's dirty flag
	flashVer map[int]int64       // t -> last committed (flash) version
	expect   map[int]flash.Token // t -> token the last commit programmed
	// pendWB tracks dirty evictions: the evicted version must later be
	// committed (at that version or newer) or the writeback was lost.
	pendWB map[int]int64
	probe  func(t int) (flash.Token, bool)
}

// WatchMap enables the map-unit invariants: cache coherence (hits only
// on resident entries at the announced version, installs only on absent
// entries, occupancy bounded by the configured capacity), version
// monotonicity (in-cache updates advance by one, commits never regress),
// and two drain rules — every dirty eviction eventually commits, and
// flash holds exactly the last committed token for every translation
// page (page conservation extended to the map itself).
func (c *Checker) WatchMap(entries int) {
	if c == nil {
		return
	}
	c.mapst = &mapState{
		entries:  entries,
		resident: make(map[int]int64),
		dirty:    make(map[int]bool),
		flashVer: make(map[int]int64),
		expect:   make(map[int]flash.Token),
		pendWB:   make(map[int]int64),
	}
	c.AddDrainCheck("map-writeback-lost", func() error {
		m := c.mapst
		if len(m.pendWB) == 0 {
			return nil
		}
		ts := make([]int, 0, len(m.pendWB))
		for t := range m.pendWB {
			ts = append(ts, t)
		}
		sort.Ints(ts)
		return fmt.Errorf("%d dirty-evicted translation page(s) never committed (first: t=%d at version %d)",
			len(ts), ts[0], m.pendWB[ts[0]])
	})
	c.AddDrainCheck("map-conservation", func() error {
		m := c.mapst
		if m.probe == nil {
			return nil
		}
		ts := make([]int, 0, len(m.expect))
		for t := range m.expect {
			ts = append(ts, t)
		}
		sort.Ints(ts)
		bad, detail := 0, ""
		for _, t := range ts {
			c.checks++
			got, ok := m.probe(t)
			want := m.expect[t]
			if !ok {
				bad++
				if detail == "" {
					detail = fmt.Sprintf("t=%d committed but not on a programmed page", t)
				}
				continue
			}
			if got != want {
				bad++
				if detail == "" {
					detail = fmt.Sprintf("t=%d flash holds %#x, last commit %#x", t, got, want)
				}
			}
		}
		if bad > 0 {
			return fmt.Errorf("%d translation page(s) lost or corrupted (%s)", bad, detail)
		}
		return nil
	})
}

// SetMapProbe installs the lookup the map-conservation drain rule uses
// to read a translation page's flash content back.
func (c *Checker) SetMapProbe(probe func(t int) (flash.Token, bool)) {
	if c == nil || c.mapst == nil {
		return
	}
	c.mapst.probe = probe
}

// MapResident implements ftl.MapSink: an install must target an absent
// entry and must not push occupancy past the configured capacity.
func (c *Checker) MapResident(t int, ver int64, dirty bool) {
	if c == nil || c.mapst == nil {
		return
	}
	c.checks++
	m := c.mapst
	if old, ok := m.resident[t]; ok {
		c.violate("map-coherence", "t=%d installed at version %d while already resident at %d", t, ver, old)
	}
	m.resident[t] = ver
	m.dirty[t] = dirty
	if m.entries > 0 && len(m.resident) > m.entries {
		c.violate("map-overflow", "%d resident translation pages, cache capacity %d", len(m.resident), m.entries)
	}
}

// MapHit implements ftl.MapSink: a hit must land on a resident entry at
// exactly the announced version — a hit on a stale or absent entry is a
// coherence breach (the served translation could be wrong).
func (c *Checker) MapHit(t int, ver int64) {
	if c == nil || c.mapst == nil {
		return
	}
	c.checks++
	m := c.mapst
	have, ok := m.resident[t]
	switch {
	case !ok:
		c.violate("map-coherence", "hit on t=%d which is not resident", t)
	case have != ver:
		c.violate("map-coherence", "hit on t=%d at version %d, cache mirror holds %d (stale entry)", t, ver, have)
	}
}

// MapMiss implements ftl.MapSink: a miss on a resident entry means the
// unit is about to fetch a page it already holds.
func (c *Checker) MapMiss(t int) {
	if c == nil || c.mapst == nil {
		return
	}
	c.checks++
	if ver, ok := c.mapst.resident[t]; ok {
		c.violate("map-coherence", "miss on t=%d while resident at version %d", t, ver)
	}
}

// MapDirtied implements ftl.MapSink: an in-cache update must hit a
// resident entry and advance its version by exactly one.
func (c *Checker) MapDirtied(t int, ver int64) {
	if c == nil || c.mapst == nil {
		return
	}
	c.checks++
	m := c.mapst
	have, ok := m.resident[t]
	switch {
	case !ok:
		c.violate("map-coherence", "dirtied t=%d which is not resident", t)
	case ver != have+1:
		c.violate("map-version", "t=%d dirtied to version %d from %d (must advance by one)", t, ver, have)
	}
	m.resident[t] = ver
	m.dirty[t] = true
}

// MapEvicted implements ftl.MapSink: an eviction must remove a resident
// entry; a dirty eviction opens a writeback obligation the drain rule
// enforces.
func (c *Checker) MapEvicted(t int, ver int64, dirty bool) {
	if c == nil || c.mapst == nil {
		return
	}
	c.checks++
	m := c.mapst
	if _, ok := m.resident[t]; !ok {
		c.violate("map-coherence", "evicted t=%d which is not resident", t)
	}
	delete(m.resident, t)
	delete(m.dirty, t)
	if dirty {
		m.pendWB[t] = ver
	}
}

// MapCommitted implements ftl.MapSink: a commit records the token flash
// must hold for t and may never regress the committed version (cleaning
// relocations re-commit at the same version; writebacks advance it).
func (c *Checker) MapCommitted(t int, ver int64, tok flash.Token) {
	if c == nil || c.mapst == nil {
		return
	}
	c.checks++
	m := c.mapst
	if have, ok := m.flashVer[t]; ok && ver < have {
		c.violate("map-version", "t=%d committed at version %d after %d (commits must be monotone)", t, ver, have)
	}
	m.flashVer[t] = ver
	m.expect[t] = tok
	if want, ok := m.pendWB[t]; ok && ver >= want {
		delete(m.pendWB, t)
	}
}

// MapCounts returns (resident, pending-writeback) ledger sizes, for
// cross-checks in tests. Safe on nil.
func (c *Checker) MapCounts() (resident, pendingWB int) {
	if c == nil || c.mapst == nil {
		return 0, 0
	}
	return len(c.mapst.resident), len(c.mapst.pendWB)
}
