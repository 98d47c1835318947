// FMMU-style demand-paged mapping (ROADMAP item 3; Woo & Min, "FMMU").
//
// In flat mode (Config.Map == nil) the FTL holds the whole LPN map in
// DRAM and translation is free — the assumption every config made until
// now, and one that silently caps the simulated device at DRAM-sized
// footprints. The map unit models what multi-TB SSDs actually do: the
// map lives on flash as translation pages, a bounded DRAM map cache
// holds the hot subset, and a lookup that misses demand-pages its
// translation page in through the very fabric under study. Map IO is
// ordinary fabric traffic — fab.Read/fab.Write/fab.Erase against a
// dedicated map-block region — so it reserves h-channels, v-channels and
// dies like any host IO, flows through the controller scheduling layer
// when one is configured, and interferes with host traffic exactly the
// way Sprinkler argues die-level map contention must.
//
// The cache is timing-only: l2p/p2l stay authoritative, so a stale or
// evicted cache entry can cost latency but never corrupt a translation.
// What keeps the model honest is the ledger the checker mirrors: every
// translation page has a content version, the token MapTokenFor(t, ver)
// is physically programmed into flash on writeback, and the invariant
// checker verifies at drain that flash holds exactly the last committed
// token for every page (page conservation extended to the map itself).
package ftl

import (
	"fmt"
	"sort"

	"repro/internal/controller"
	"repro/internal/flash"
	"repro/internal/sim"
	"repro/internal/trace"
)

// MapConfig enables and parameterizes the FMMU-style map unit. A nil
// *MapConfig on Config selects flat mapping: no map unit is built, no
// map IO exists, and the run is byte-identical to builds without this
// file.
type MapConfig struct {
	// Entries is the DRAM map-cache capacity in translation pages
	// (default 64).
	Entries int
	// Eviction selects the cache replacement policy: "clock" (default)
	// or "lru".
	Eviction string
	// EntriesPerPage is how many LPN translations one flash page holds
	// (default PageSize/8: 8-byte PPN entries). Unit tests shrink it to
	// exercise many translation pages on tiny geometries.
	EntriesPerPage int
	// WritebackBatch flushes dirty translation pages once this many are
	// dirty at once (default 8). Dirty pages below the threshold stay in
	// DRAM, as on a real device between periodic syncs.
	WritebackBatch int
}

func (c MapConfig) withDefaults(geo flash.Geometry) MapConfig {
	if c.Entries <= 0 {
		c.Entries = 64
	}
	if c.Eviction == "" {
		c.Eviction = "clock"
	}
	if c.Eviction != "clock" && c.Eviction != "lru" {
		panic(fmt.Sprintf("ftl: unknown map eviction policy %q (want clock or lru)", c.Eviction))
	}
	if c.EntriesPerPage <= 0 {
		c.EntriesPerPage = geo.PageSize / 8
	}
	if c.WritebackBatch <= 0 {
		c.WritebackBatch = 8
	}
	return c
}

// MapStats aggregates map-unit activity over a run.
type MapStats struct {
	Lookups          int64 // translation-page lookups (distinct pages per request)
	Hits             int64 // lookups served from the DRAM cache
	Misses           int64 // lookups that had to wait for flash
	SharedMisses     int64 // misses coalesced onto an already in-flight fetch
	Fetches          int64 // map-read flash operations issued
	Writebacks       int64 // map-write flash operations issued (all causes)
	ForcedWritebacks int64 // writebacks forced by dirty eviction
	UpdateAllocs     int64 // dirty entries installed without fetching (write-allocate)
	UpdateBypasses   int64 // updates written back directly with no slot available
	Evictions        int64 // cache entries evicted
	Relocations      int64 // live translation pages moved by map-block cleaning
	CleanRounds      int64 // map-block cleaning rounds
	MapErases        int64 // map blocks erased by cleaning
}

// MissRate returns Misses/Lookups, zero when no lookups happened.
func (s MapStats) MissRate() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Lookups)
}

// MapSink receives the map unit's lifecycle hooks for invariant
// checking, mirroring CheckSink: MapCommitted is the authoritative
// record of what every translation page's flash home should contain.
type MapSink interface {
	// MapResident records translation page t entering the cache at
	// version ver (fetch completion, write-allocate, or warmup touch).
	MapResident(t int, ver int64, dirty bool)
	// MapHit records a lookup served from the cache at version ver.
	MapHit(t int, ver int64)
	// MapMiss records a lookup that found t absent (or mid-fetch).
	MapMiss(t int)
	// MapDirtied records an in-cache update advancing t to version ver.
	MapDirtied(t int, ver int64)
	// MapEvicted records t leaving the cache; dirty entries must later
	// be committed at a version ≥ theirs or the ledger flags a lost
	// writeback.
	MapEvicted(t int, ver int64, dirty bool)
	// MapCommitted records a map-write (writeback or cleaning
	// relocation) programming token tok for t at version ver.
	MapCommitted(t int, ver int64, tok flash.Token)
}

// MapTokenFor derives the content token programmed into flash for a
// (translation page, version) pair. The constants differ from TokenFor
// so map tokens never collide with host-data tokens.
func MapTokenFor(t int, version int64) flash.Token {
	x := uint64(t)*0xD6E8FEB86659FD93 + uint64(version)*0x9E3779B97F4A7C15 + 0xA5A5A5A5A5A5A5A5
	x ^= x >> 29
	return flash.Token(x)
}

const mapSlotEmpty = -1

// mapSlot is one DRAM map-cache entry.
type mapSlot struct {
	t     int   // translation page index, mapSlotEmpty when free
	dirty bool  // DRAM version ahead of the flash home
	ref   bool  // CLOCK second-chance bit
	use   int64 // LRU recency stamp
	pend  bool  // fetch in flight into this slot; not evictable
}

// mapBlock is one flash block carved out for translation pages.
type mapBlock struct {
	id        controller.ChipID
	plane     int
	block     int
	next      int // next append page index
	live      int // translation pages whose current flash home is here
	fetchRefs int // in-flight map reads pinning this block against erase
	writes    int // in-flight map programs into this block
}

// wbReq is one queued translation-page writeback.
type wbReq struct {
	t   int
	ver int64
}

// mapUnit is the FMMU model: directory, cache, writeback queue, and
// map-block cleaner. All state mutation happens inside engine event
// callbacks, in deterministic order.
type mapUnit struct {
	f   *FTL
	cfg MapConfig

	numT    int // translation pages covering the logical space
	perPage int

	// Cache.
	slots     []mapSlot
	where     map[int]int // t -> slot index (present also while pend)
	freeSlots []int       // LIFO; seeded so slot 0 pops first
	hand      int         // CLOCK sweep position
	useTick   int64       // LRU stamp source

	// Directory: where each translation page lives on flash and which
	// content version is current (DRAM) vs committed (flash).
	loc      []int64 // t -> phys page index of the flash home
	homeB    []int   // t -> index into blocks of the flash home
	ver      []int64 // t -> current content version
	flashVer []int64 // t -> version last committed to flash

	// Map-block region.
	blocks  []mapBlock
	activeB int // current append block
	spareB  int // erased block reserved as the cleaning destination

	// Waiters.
	fetching    map[int][]func() // t -> lookups coalesced onto the in-flight fetch
	wbPending   map[int]int      // t -> in-flight map programs for t
	wbWaiters   map[int][]func() // t -> continuations parked until wbPending[t]==0
	slotWaiters []func()         // lookups parked until any fetch lands

	// Writeback and cleaning.
	dirtyCount int
	wbQueue    []wbReq
	cleaning   bool
	cleanSpan  trace.SpanID

	stats MapStats
	sink  MapSink
}

// tIndex maps an LPN to its translation page.
func (m *mapUnit) tIndex(lpn int64) int { return int(lpn / int64(m.perPage)) }

// newMapUnit carves the map-block region out of the free pools, installs
// the initial directory (every translation page programmed at version 0,
// consuming no simulated time — the device ships formatted), and returns
// the unit. Called from New before any host IO exists, so the carve is
// deterministic for a given config.
func newMapUnit(f *FTL, cfg MapConfig) *mapUnit {
	cfg = cfg.withDefaults(f.geo)
	m := &mapUnit{
		f:         f,
		cfg:       cfg,
		perPage:   cfg.EntriesPerPage,
		where:     make(map[int]int),
		fetching:  make(map[int][]func()),
		wbPending: make(map[int]int),
		wbWaiters: make(map[int][]func()),
	}
	m.numT = int((f.numLPNs + int64(m.perPage) - 1) / int64(m.perPage))
	m.slots = make([]mapSlot, cfg.Entries)
	for i := range m.slots {
		m.slots[i].t = mapSlotEmpty
	}
	for i := cfg.Entries - 1; i >= 0; i-- {
		m.freeSlots = append(m.freeSlots, i)
	}
	m.loc = make([]int64, m.numT)
	m.homeB = make([]int, m.numT)
	m.ver = make([]int64, m.numT)
	m.flashVer = make([]int64, m.numT)
	m.carveBlocks()
	m.installDirectory()
	return m
}

// carveBlocks removes the map region from the host free pools:
// ceil(numT/pagesPerBlock) directory blocks plus two overwrite blocks
// plus one spare (the cleaning destination), spread round-robin across
// chips and planes so map IO exercises the whole fabric. Carved blocks
// are marked Full+mapOwned: GC skips them, FreeBlockFraction honestly
// excludes them, and CheckConsistency passes because their validCount
// stays zero (translation pages never enter p2l).
func (m *mapUnit) carveBlocks() {
	geo := m.f.geo
	needed := (m.numT+geo.PagesPerBlock-1)/geo.PagesPerBlock + 3
	numChips := m.f.channels * m.f.ways
	for i := 0; i < needed; i++ {
		chipIdx := i % numChips
		id := controller.ChipID{Channel: chipIdx / m.f.ways, Way: chipIdx % m.f.ways}
		plane := (i / numChips) % geo.Planes
		ps := m.f.planeAt(id, plane)
		if len(ps.free) == 0 {
			panic(fmt.Sprintf("ftl: map region does not fit: chip %v plane %d has no free block for map block %d/%d (shrink the footprint or EntriesPerPage)", id, plane, i, needed))
		}
		b := ps.popFree()
		bi := &ps.blocks[b]
		bi.state = BlockFull
		bi.mapOwned = true
		m.blocks = append(m.blocks, mapBlock{id: id, plane: plane, block: b})
	}
	m.spareB = len(m.blocks) - 1
}

// installDirectory programs every translation page at version 0 into the
// carved blocks sequentially, instantly (InstallPage, like warmup).
func (m *mapUnit) installDirectory() {
	geo := m.f.geo
	bi := 0
	for t := 0; t < m.numT; t++ {
		if m.blocks[bi].next == geo.PagesPerBlock {
			bi++
		}
		if bi >= m.spareB {
			panic("ftl: map directory overflowed into the spare block")
		}
		blk := &m.blocks[bi]
		addr := flash.PPA{Plane: blk.plane, Block: blk.block, Page: blk.next}
		m.f.fab.Grid().Chip(blk.id).InstallPage(addr, MapTokenFor(t, 0))
		m.loc[t] = physIndex(geo, m.f.ways, blk.id, addr)
		m.homeB[t] = bi
		blk.next++
		blk.live++
	}
	m.activeB = bi
}

// ---- cache ----

func (m *mapUnit) touchSlot(si int) {
	m.slots[si].ref = true
	m.useTick++
	m.slots[si].use = m.useTick
}

// grabSlot returns a free or evictable slot, or false when every slot
// has a fetch in flight. Eviction is policy-driven; a dirty victim
// queues an immediate writeback of its version on the way out.
func (m *mapUnit) grabSlot() (int, bool) {
	if n := len(m.freeSlots); n > 0 {
		si := m.freeSlots[n-1]
		m.freeSlots = m.freeSlots[:n-1]
		return si, true
	}
	switch m.cfg.Eviction {
	case "lru":
		best, bestUse := -1, int64(0)
		for si := range m.slots {
			sl := &m.slots[si]
			if sl.pend {
				continue
			}
			if best < 0 || sl.use < bestUse {
				best, bestUse = si, sl.use
			}
		}
		if best < 0 {
			return 0, false
		}
		m.evict(best)
		return best, true
	default: // clock
		for sweep := 0; sweep < 2*len(m.slots); sweep++ {
			si := m.hand
			m.hand = (m.hand + 1) % len(m.slots)
			sl := &m.slots[si]
			if sl.pend {
				continue
			}
			if sl.ref {
				sl.ref = false
				continue
			}
			m.evict(si)
			return si, true
		}
		return 0, false
	}
}

func (m *mapUnit) evict(si int) {
	sl := &m.slots[si]
	t := sl.t
	wasDirty := sl.dirty
	if wasDirty {
		m.stats.ForcedWritebacks++
		m.wbQueue = append(m.wbQueue, wbReq{t: t, ver: m.ver[t]})
		m.dirtyCount--
	}
	m.stats.Evictions++
	if m.sink != nil {
		m.sink.MapEvicted(t, m.ver[t], wasDirty)
	}
	delete(m.where, t)
	sl.t, sl.dirty, sl.ref, sl.pend = mapSlotEmpty, false, false, false
	if wasDirty {
		m.drainWB()
	}
}

// install makes t resident in slot si.
func (m *mapUnit) install(si, t int, dirty bool) {
	sl := &m.slots[si]
	sl.t, sl.dirty, sl.pend = t, dirty, false
	m.where[t] = si
	m.touchSlot(si)
	if dirty {
		m.dirtyCount++
	}
	if m.sink != nil {
		m.sink.MapResident(t, m.ver[t], dirty)
	}
}

// ---- lookup / demand paging ----

// tpages returns the distinct translation pages backing lpns, in
// first-touch order.
func (m *mapUnit) tpages(lpns []int64) []int {
	ts := make([]int, 0, len(lpns))
	for _, lpn := range lpns {
		t := m.tIndex(lpn)
		dup := false
		for _, u := range ts {
			if u == t {
				dup = true
				break
			}
		}
		if !dup {
			ts = append(ts, t)
		}
	}
	return ts
}

// translate ensures every translation page backing lpns is resident,
// fetching missing ones from flash, then runs done. Pages are resolved
// sequentially within one request — only the lookup instant needs
// residency (the entry may be evicted again right after), which is what
// makes a one-entry cache workable — and concurrently across requests:
// a miss parks only its own request, so independent host requests never
// serialize behind one map fetch (miss-under-miss).
func (m *mapUnit) translate(lpns []int64, done func()) {
	m.lookupAll(m.tpages(lpns), done)
}

func (m *mapUnit) lookupAll(ts []int, done func()) {
	for len(ts) > 0 {
		t := ts[0]
		now := m.f.eng.Now()
		m.stats.Lookups++
		if si, ok := m.where[t]; ok && !m.slots[si].pend {
			m.stats.Hits++
			m.touchSlot(si)
			m.f.tel.MapHit(now)
			if m.sink != nil {
				m.sink.MapHit(t, m.ver[t])
			}
			ts = ts[1:]
			continue
		}
		m.stats.Misses++
		m.f.tel.MapMiss(now)
		if m.sink != nil {
			m.sink.MapMiss(t)
		}
		rest := ts[1:]
		cont := func() { m.lookupAll(rest, done) }
		if _, ok := m.where[t]; ok {
			// Fetch already in flight: coalesce onto it.
			m.stats.SharedMisses++
			m.fetching[t] = append(m.fetching[t], cont)
			return
		}
		m.startFetch(t, cont)
		return
	}
	done()
}

// resolveAgain re-resolves t after a wait (slot or writeback); the world
// may have changed while parked. The original lookup already counted its
// miss, so this path never double-counts.
func (m *mapUnit) resolveAgain(t int, cont func()) {
	if si, ok := m.where[t]; ok {
		if m.slots[si].pend {
			m.fetching[t] = append(m.fetching[t], cont)
			return
		}
		m.touchSlot(si)
		cont()
		return
	}
	m.startFetch(t, cont)
}

// startFetch demand-pages translation page t in from its flash home.
func (m *mapUnit) startFetch(t int, cont func()) {
	if m.wbPending[t] > 0 {
		// A program for this page is still in the fabric; the chip
		// commits page state only when the op arrives, so a read racing
		// it could reach an unprogrammed page. Park until it lands.
		m.wbWaiters[t] = append(m.wbWaiters[t], func() { m.resolveAgain(t, cont) })
		return
	}
	si, ok := m.grabSlot()
	if !ok {
		// Every slot has a fetch in flight: wait for one to land.
		m.slotWaiters = append(m.slotWaiters, func() { m.resolveAgain(t, cont) })
		return
	}
	sl := &m.slots[si]
	sl.t, sl.pend, sl.dirty, sl.ref = t, true, false, false
	m.where[t] = si
	m.stats.Fetches++
	hb := m.homeB[t]
	m.blocks[hb].fetchRefs++
	_, addr := physDecode(m.f.geo, m.f.ways, m.loc[t])
	var span trace.SpanID
	if m.f.trc.Enabled() {
		span = m.f.trc.BeginSpan("ftl", "map-fetch", trace.KV{K: "tpage", V: t})
	}
	m.f.fab.Read(m.blocks[hb].id, []flash.PPA{addr}, func() {
		m.f.trc.EndSpan(span)
		m.blocks[hb].fetchRefs--
		// The slot was reserved for t; pend kept it from being evicted
		// or reused while the read was in flight.
		sl := &m.slots[si]
		sl.pend = false
		m.touchSlot(si)
		// An update may have dirtied the entry mid-fetch (noteUpdate on
		// a pend slot); MapResident reports the current version either
		// way.
		if m.sink != nil {
			m.sink.MapResident(t, m.ver[t], sl.dirty)
		}
		waiters := m.fetching[t]
		delete(m.fetching, t)
		cont()
		for _, w := range waiters {
			w()
		}
		m.wakeSlotWaiters()
	})
}

func (m *mapUnit) wakeSlotWaiters() {
	if len(m.slotWaiters) == 0 {
		return
	}
	ws := m.slotWaiters
	m.slotWaiters = nil
	for _, w := range ws {
		w()
	}
}

// warmTouch makes a translation page resident during instant warmup, as
// a clean entry: warmup models a clean mount where the flash directory
// already matches the installed state, so no version bump and no
// writeback traffic (and an effectively infinite cache then behaves
// exactly like flat mapping on a read-only workload).
func (m *mapUnit) warmTouch(lpn int64) {
	t := m.tIndex(lpn)
	if si, ok := m.where[t]; ok {
		m.touchSlot(si)
		return
	}
	si, ok := m.grabSlot()
	if !ok {
		return // every slot mid-fetch; cannot happen during warmup
	}
	m.install(si, t, false)
}

// ---- updates and writeback ----

// noteUpdate records a mapping change for lpn: the translation page's
// version advances and its cache entry becomes dirty. A non-resident
// entry is write-allocated dirty without fetching flash content first —
// the FMMU pipelined-update path: a map update overwrites its entry, so
// the stale flash copy contributes nothing and reading it first would be
// pure added latency.
func (m *mapUnit) noteUpdate(lpn int64) {
	t := m.tIndex(lpn)
	m.ver[t]++
	if si, ok := m.where[t]; ok {
		sl := &m.slots[si]
		if !sl.dirty {
			sl.dirty = true
			m.dirtyCount++
		}
		m.touchSlot(si)
		// A pend slot has not announced residency yet; the fetch
		// completion will report the dirty install instead.
		if !sl.pend && m.sink != nil {
			m.sink.MapDirtied(t, m.ver[t])
		}
		m.maybeFlush()
		return
	}
	si, ok := m.grabSlot()
	if !ok {
		// Every slot is mid-fetch: bypass the cache and queue the
		// writeback directly. The update itself already landed in the
		// authoritative tables.
		m.stats.UpdateBypasses++
		m.wbQueue = append(m.wbQueue, wbReq{t: t, ver: m.ver[t]})
		m.drainWB()
		return
	}
	m.stats.UpdateAllocs++
	m.install(si, t, true)
	m.maybeFlush()
}

func (m *mapUnit) maybeFlush() {
	if m.dirtyCount < m.cfg.WritebackBatch {
		return
	}
	m.flushDirty()
}

// flushDirty queues a batched writeback of every dirty resident entry,
// lowest translation page first (deterministic order), marking them
// clean at queue time: the queued version is exactly what the flush will
// commit, and a later update simply re-dirties the entry at a higher
// version.
func (m *mapUnit) flushDirty() {
	var ts []int
	for si := range m.slots {
		sl := &m.slots[si]
		if sl.t != mapSlotEmpty && sl.dirty {
			ts = append(ts, sl.t)
		}
	}
	sort.Ints(ts)
	for _, t := range ts {
		m.wbQueue = append(m.wbQueue, wbReq{t: t, ver: m.ver[t]})
		sl := &m.slots[m.where[t]]
		sl.dirty = false
		m.dirtyCount--
	}
	m.drainWB()
}

// drainWB issues queued translation-page writebacks in order, one flash
// program per page (map pages in one block share a plane, so multi-plane
// batching is structurally impossible). When the map region has no
// appendable page left it starts a cleaning round and resumes when the
// round frees a block.
func (m *mapUnit) drainWB() {
	for len(m.wbQueue) > 0 {
		req := m.wbQueue[0]
		if req.ver <= m.flashVer[req.t] {
			// Superseded: an equal-or-newer version already committed.
			m.wbQueue = m.wbQueue[1:]
			continue
		}
		bi, page, ok := m.mapAlloc()
		if !ok {
			m.startCleaning()
			return
		}
		m.wbQueue = m.wbQueue[1:]
		m.commitWB(req, bi, page)
	}
}

// mapAlloc returns the map block index and page for the next append, or
// false when every non-spare block is full.
func (m *mapUnit) mapAlloc() (int, int, bool) {
	if m.blocks[m.activeB].next < m.f.geo.PagesPerBlock {
		p := m.blocks[m.activeB].next
		m.blocks[m.activeB].next++
		return m.activeB, p, true
	}
	for bi := range m.blocks {
		if bi == m.spareB {
			continue
		}
		if m.blocks[bi].next == 0 {
			m.activeB = bi
			m.blocks[bi].next = 1
			return bi, 0, true
		}
	}
	return 0, 0, false
}

// commitWB programs one translation page to its new home. Bookkeeping —
// directory move, version commit, ledger hook — happens at issue time:
// the chip commits page state when the op arrives, and wbPending parks
// any fetch of t until the program lands, so no read can observe the
// window in between.
func (m *mapUnit) commitWB(req wbReq, bi, page int) {
	t := req.t
	blk := &m.blocks[bi]
	addr := flash.PPA{Plane: blk.plane, Block: blk.block, Page: page}
	tok := MapTokenFor(t, req.ver)
	m.blocks[m.homeB[t]].live--
	m.homeB[t] = bi
	blk.live++
	m.loc[t] = physIndex(m.f.geo, m.f.ways, blk.id, addr)
	m.flashVer[t] = req.ver
	m.stats.Writebacks++
	if m.sink != nil {
		m.sink.MapCommitted(t, req.ver, tok)
	}
	m.f.tel.Event("map-writeback", m.f.eng.Now())
	m.issueMapWrite(bi, addr, t, tok)
}

// issueMapWrite sends one map program into the fabric, tracking the
// in-flight window that gates fetches of t and the erase of block bi.
func (m *mapUnit) issueMapWrite(bi int, addr flash.PPA, t int, tok flash.Token) {
	m.wbPending[t]++
	m.blocks[bi].writes++
	m.f.fab.Write(m.blocks[bi].id, []flash.ProgramOp{{Addr: addr, Token: tok}}, func() {
		m.blocks[bi].writes--
		m.wbPending[t]--
		if m.wbPending[t] <= 0 {
			delete(m.wbPending, t)
			ws := m.wbWaiters[t]
			delete(m.wbWaiters, t)
			for _, w := range ws {
				w()
			}
		}
	})
}

// ---- map-block cleaning ----

// startCleaning reclaims map-region space: the full block with the
// fewest live translation pages is compacted into the reserved spare,
// erased, and becomes the new spare; the old spare joins the append
// rotation. One round runs at a time; drainWB resumes when it finishes.
func (m *mapUnit) startCleaning() {
	if m.cleaning {
		return
	}
	m.cleaning = true
	m.stats.CleanRounds++
	victim := -1
	for bi := range m.blocks {
		if bi == m.spareB || m.blocks[bi].next < m.f.geo.PagesPerBlock {
			continue
		}
		if victim < 0 || m.blocks[bi].live < m.blocks[victim].live {
			victim = bi
		}
	}
	if victim < 0 || m.blocks[victim].live >= m.f.geo.PagesPerBlock {
		panic("ftl: map region wedged — every map block fully live (region sized too small)")
	}
	if m.f.trc.Enabled() {
		m.cleanSpan = m.f.trc.BeginSpan("ftl", "map-clean",
			trace.KV{K: "victim", V: victim},
			trace.KV{K: "live", V: m.blocks[victim].live})
	}
	var ts []int
	for t := 0; t < m.numT; t++ {
		if m.homeB[t] == victim {
			ts = append(ts, t)
		}
	}
	m.relocate(victim, ts, 0)
}

// relocate moves the victim's live translation pages into the spare, one
// read-then-program chain at a time, then erases the victim. Pages whose
// own writeback is mid-flight are waited on (the writeback rehomes them
// off the victim anyway); pages rehomed since the scan are skipped.
func (m *mapUnit) relocate(victim int, ts []int, i int) {
	for i < len(ts) && m.homeB[ts[i]] != victim {
		i++
	}
	if i >= len(ts) {
		m.eraseMapBlock(victim)
		return
	}
	t := ts[i]
	if m.wbPending[t] > 0 {
		m.wbWaiters[t] = append(m.wbWaiters[t], func() { m.relocate(victim, ts, i) })
		return
	}
	_, src := physDecode(m.f.geo, m.f.ways, m.loc[t])
	m.blocks[victim].fetchRefs++
	m.f.fab.Read(m.blocks[victim].id, []flash.PPA{src}, func() {
		m.blocks[victim].fetchRefs--
		if m.homeB[t] != victim {
			// A writeback rehomed the page while the read was queued.
			m.relocate(victim, ts, i+1)
			return
		}
		sp := &m.blocks[m.spareB]
		if sp.next >= m.f.geo.PagesPerBlock {
			panic("ftl: map spare block overflowed during cleaning")
		}
		page := sp.next
		sp.next++
		addr := flash.PPA{Plane: sp.plane, Block: sp.block, Page: page}
		ver := m.flashVer[t]
		tok := MapTokenFor(t, ver)
		m.blocks[victim].live--
		m.homeB[t] = m.spareB
		sp.live++
		m.loc[t] = physIndex(m.f.geo, m.f.ways, sp.id, addr)
		m.stats.Relocations++
		if m.sink != nil {
			// Same version, new home: the ledger's monotonicity rule is ≥.
			m.sink.MapCommitted(t, ver, tok)
		}
		m.issueMapWrite(m.spareB, addr, t, tok)
		m.relocate(victim, ts, i+1)
	})
}

// eraseMapBlock erases a fully compacted victim once nothing pins it:
// in-flight fetches of already-rehomed pages may still target it, and
// its own last appends may still be in the fabric. Polls like
// eraseVictim does for host reads.
func (m *mapUnit) eraseMapBlock(victim int) {
	blk := &m.blocks[victim]
	if blk.live != 0 {
		panic(fmt.Sprintf("ftl: erasing map block with %d live pages", blk.live))
	}
	if blk.fetchRefs > 0 || blk.writes > 0 {
		m.f.eng.Schedule(20*sim.Microsecond, func() { m.eraseMapBlock(victim) })
		return
	}
	m.f.fab.Erase(blk.id, []flash.PPA{{Plane: blk.plane, Block: blk.block}}, func() {
		m.finishCleaning(victim)
	})
}

func (m *mapUnit) finishCleaning(victim int) {
	m.blocks[victim].next = 0
	m.stats.MapErases++
	oldSpare := m.spareB
	m.spareB = victim
	// The old spare holds the relocated pages; keep appending into its
	// free tail. If relocation filled it completely, mapAlloc falls back
	// to the next erased block (or the next cleaning round).
	if m.blocks[oldSpare].next < m.f.geo.PagesPerBlock {
		m.activeB = oldSpare
	}
	m.cleaning = false
	m.f.trc.EndSpan(m.cleanSpan)
	m.cleanSpan = trace.SpanID{}
	m.drainWB()
}

// ---- introspection / checker attach points ----

// MapEnabled reports whether the fmmu map unit is active.
func (f *FTL) MapEnabled() bool { return f.mapu != nil }

// MapStats returns a copy of the map unit's counters (zero when flat).
func (f *FTL) MapStats() MapStats {
	if f.mapu == nil {
		return MapStats{}
	}
	return f.mapu.stats
}

// NumTranslationPages returns the translation-page count (zero when
// flat).
func (f *FTL) NumTranslationPages() int {
	if f.mapu == nil {
		return 0
	}
	return f.mapu.numT
}

// MapCacheEntries returns the configured map-cache capacity (zero when
// flat).
func (f *FTL) MapCacheEntries() int {
	if f.mapu == nil {
		return 0
	}
	return f.mapu.cfg.Entries
}

// MapFlashToken probes the flash content at translation page t's current
// home — the checker's conservation witness.
func (f *FTL) MapFlashToken(t int) (flash.Token, bool) {
	m := f.mapu
	if m == nil || t < 0 || t >= m.numT {
		return 0, false
	}
	id, addr := physDecode(f.geo, f.ways, m.loc[t])
	return f.fab.Grid().Chip(id).ContentAt(addr), true
}

// SetMapChecker attaches a map-ledger sink (nil detaches) and replays
// the current directory and residency so the mirror starts aligned:
// every translation page's committed version, then every resident entry.
func (f *FTL) SetMapChecker(s MapSink) {
	m := f.mapu
	if m == nil {
		return
	}
	m.sink = s
	if s == nil {
		return
	}
	for t := 0; t < m.numT; t++ {
		s.MapCommitted(t, m.flashVer[t], MapTokenFor(t, m.flashVer[t]))
	}
	for si := range m.slots {
		sl := &m.slots[si]
		if sl.t != mapSlotEmpty && !sl.pend {
			s.MapResident(sl.t, m.ver[sl.t], sl.dirty)
		}
	}
}

// MapIdle returns an error while the map unit still has work in flight;
// the drain checker calls it after the engine empties. Dirty resident
// entries are fine (they flush on the batch threshold, like a real
// device between syncs) — what must be empty is everything event-driven.
func (f *FTL) MapIdle() error {
	m := f.mapu
	if m == nil {
		return nil
	}
	if n := len(m.fetching); n > 0 {
		return fmt.Errorf("ftl: %d map fetches still in flight", n)
	}
	for si := range m.slots {
		if m.slots[si].t != mapSlotEmpty && m.slots[si].pend {
			return fmt.Errorf("ftl: map slot %d still pending", si)
		}
	}
	if n := len(m.slotWaiters); n > 0 {
		return fmt.Errorf("ftl: %d lookups parked on map slots", n)
	}
	if n := len(m.wbQueue); n > 0 {
		return fmt.Errorf("ftl: %d map writebacks still queued", n)
	}
	if n := len(m.wbPending); n > 0 {
		return fmt.Errorf("ftl: %d translation pages with programs in flight", n)
	}
	if n := len(m.wbWaiters); n > 0 {
		return fmt.Errorf("ftl: %d waiters parked on map writebacks", n)
	}
	if m.cleaning {
		return fmt.Errorf("ftl: map cleaning round still active")
	}
	return nil
}
