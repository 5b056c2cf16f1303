// Package mem models the memory hierarchy of the paper's trace-driven
// evaluation platform (Table 4): set-associative write-back caches with
// LRU replacement, miss-status holding registers, a bandwidth-limited DRAM
// channel, and a three-level hierarchy that classifies prefetches as
// timely, late, or wrong (Fig. 9) and exposes the L2-demand-access count
// that defines the prefetching bandit step.
package mem

import "fmt"

// lineShift is log2 of the cache line size (64 B).
const lineShift = 6

// LineAddr returns the line address (byte address >> lineShift).
func LineAddr(addr uint64) uint64 { return addr >> lineShift }

// invalidTag marks an empty way in the packed tag array. Real line
// addresses are byte addresses shifted right by lineShift, so they are
// bounded by 2^58 and can never collide with the sentinel.
const invalidTag = ^uint64(0)

// lineMeta is the per-way bookkeeping state, kept in an array parallel
// to the packed tags: the tag scan — the per-access hot loop — touches
// only 8 bytes per way, and these flag bytes only on the line it
// decides on.
type lineMeta struct {
	dirty      bool
	prefetched bool // filled by a prefetch...
	used       bool // ...and since referenced by a demand access
}

// CacheStats counts cache-local events.
type CacheStats struct {
	Hits          int64
	Misses        int64
	Fills         int64
	Evictions     int64
	DirtyEvicts   int64
	PrefFills     int64
	PrefUseful    int64 // prefetched lines that saw a demand hit
	PrefUnused    int64 // prefetched lines evicted untouched ("wrong")
	PrefRedundant int64 // prefetches dropped because the line was present
}

// Cache is a set-associative, write-back, write-allocate cache with true
// LRU replacement. The zero value is unusable; construct with NewCache.
//
// Storage is flat arrays indexed by set*ways+way: packed tags (with
// invalidTag marking empty ways) and the parallel metadata. Recency is
// an intrusive doubly linked list per set (next/prev hold way indices)
// ordered LRU→MRU: a touch relinks in O(1) and the victim is always the
// set's head, so neither lookups nor fills scan recency state. The list
// starts in way order and empty ways are never touched, so while any
// way is empty the head is the lowest-indexed empty way — exactly the
// victim order of the timestamp scan this replaced; after that, touch
// order is a strict total order and head = least recently used.
type Cache struct {
	name string
	tags []uint64
	meta []lineMeta
	next []uint8 // toward MRU, per way
	prev []uint8 // toward LRU, per way
	head []uint8 // LRU way, per set
	tail []uint8 // MRU way, per set

	ways  int
	mask  uint64
	stats CacheStats

	// insert selects where fills land in the recency order (the cacheins
	// decision scenario). InsertMRU is classic LRU; bipCount drives the
	// deterministic BIP epsilon.
	insert   InsertPolicy
	bipCount uint64
}

// InsertPolicy selects where a filled line enters a set's recency order.
// The zero value InsertMRU is classic LRU insertion (historical
// behaviour).
type InsertPolicy uint8

// Insertion policies.
const (
	// InsertMRU: fills go to the MRU position — classic LRU replacement.
	InsertMRU InsertPolicy = iota
	// InsertLIP: LRU-insertion policy — fills stay at the LRU position,
	// so a line must be re-referenced to survive the next fill. Makes
	// thrashing scans pass through a single way instead of flushing the
	// set.
	InsertLIP
	// InsertBIP32: bimodal insertion — LIP, except every 32nd fill goes
	// to MRU, letting a small resident fraction of a thrashing working
	// set stick. The epsilon counter is global and deterministic.
	InsertBIP32
	// InsertBIP8: bimodal insertion with a 1/8 MRU fraction.
	InsertBIP8

	numInsertPolicies
)

// InsertPolicyNames lists the policies in arm order.
func InsertPolicyNames() []string { return []string{"lru", "lip", "bip32", "bip8"} }

// String implements fmt.Stringer.
func (p InsertPolicy) String() string {
	switch p {
	case InsertMRU:
		return "lru"
	case InsertLIP:
		return "lip"
	case InsertBIP32:
		return "bip32"
	case InsertBIP8:
		return "bip8"
	default:
		return fmt.Sprintf("insert(%d)", uint8(p))
	}
}

// SetInsertPolicy switches the insertion policy. Safe to call mid-run
// (it is the cacheins scenario's Apply path) and allocation-free;
// resident lines keep their current recency positions.
func (c *Cache) SetInsertPolicy(p InsertPolicy) {
	if p >= numInsertPolicies {
		panic(fmt.Sprintf("mem: cache %s invalid insertion policy %d", c.name, uint8(p)))
	}
	c.insert = p
}

// NewCache builds a cache with the given geometry. sets must be a power of
// two; ways must be positive (and at most 255, for the uint8 LRU links).
func NewCache(name string, sets, ways int) *Cache {
	if sets <= 0 || sets&(sets-1) != 0 {
		panic(fmt.Sprintf("mem: cache %s sets %d not a power of two", name, sets))
	}
	if ways <= 0 || ways > 255 {
		panic(fmt.Sprintf("mem: cache %s needs 1..255 ways, got %d", name, ways))
	}
	c := &Cache{
		name: name,
		tags: make([]uint64, sets*ways),
		meta: make([]lineMeta, sets*ways),
		next: make([]uint8, sets*ways),
		prev: make([]uint8, sets*ways),
		head: make([]uint8, sets),
		tail: make([]uint8, sets),
		ways: ways,
		mask: uint64(sets - 1),
	}
	c.initState()
	return c
}

// initState resets tags and links every set's LRU list in way order.
func (c *Cache) initState() {
	for i := range c.tags {
		c.tags[i] = invalidTag
	}
	sets := len(c.head)
	for s := 0; s < sets; s++ {
		base := s * c.ways
		for w := 0; w < c.ways; w++ {
			c.next[base+w] = uint8(w + 1)
			c.prev[base+w] = uint8(w - 1) // way 0 wraps; head has no prev
		}
		c.head[s] = 0
		c.tail[s] = uint8(c.ways - 1)
	}
}

// Name returns the cache's name ("L1", "L2", "LLC").
func (c *Cache) Name() string { return c.name }

// Stats returns the event counters.
func (c *Cache) Stats() CacheStats { return c.stats }

// SizeBytes returns the cache capacity.
func (c *Cache) SizeBytes() int { return len(c.tags) * (1 << lineShift) }

// base returns the first storage index of the set holding lineAddr.
func (c *Cache) base(lineAddr uint64) int { return int(lineAddr&c.mask) * c.ways }

// find returns the storage index holding lineAddr, or -1. The scan runs
// over the packed tag array only; the invalidTag sentinel makes a
// separate validity check unnecessary.
func (c *Cache) find(base int, lineAddr uint64) int {
	for i, t := range c.tags[base : base+c.ways] {
		if t == lineAddr {
			return base + i
		}
	}
	return -1
}

// touch moves way w (a storage index) of set to the MRU end of its list.
func (c *Cache) touch(set, base, w int) {
	ww := uint8(w - base)
	if c.tail[set] == ww {
		return
	}
	// Unlink.
	if c.head[set] == ww {
		c.head[set] = c.next[w]
	} else {
		p := base + int(c.prev[w])
		c.next[p] = c.next[w]
		c.prev[base+int(c.next[w])] = c.prev[w]
	}
	// Append at MRU.
	t := base + int(c.tail[set])
	c.next[t] = ww
	c.prev[w] = c.tail[set]
	c.tail[set] = ww
}

// Lookup probes the cache with a demand access. On a hit it updates LRU
// and the dirty/used bits and returns true.
func (c *Cache) Lookup(lineAddr uint64, isWrite bool) bool {
	set := int(lineAddr & c.mask)
	base := set * c.ways
	// MRU-first: repeated accesses to one line (sequential words of a
	// streaming access pattern) hit the tail way, where touch is a no-op.
	// A line occupies at most one way, so probing the tail first cannot
	// change the outcome.
	if w := base + int(c.tail[set]); c.tags[w] == lineAddr {
		m := &c.meta[w]
		if isWrite {
			m.dirty = true
		}
		if m.prefetched && !m.used {
			m.used = true
			c.stats.PrefUseful++
		}
		c.stats.Hits++
		return true
	}
	w := c.find(base, lineAddr)
	if w < 0 {
		c.stats.Misses++
		return false
	}
	c.touch(set, base, w)
	m := &c.meta[w]
	if isWrite {
		m.dirty = true
	}
	if m.prefetched && !m.used {
		m.used = true
		c.stats.PrefUseful++
	}
	c.stats.Hits++
	return true
}

// Contains probes without updating any state (used to drop redundant
// prefetches).
func (c *Cache) Contains(lineAddr uint64) bool {
	return c.find(c.base(lineAddr), lineAddr) >= 0
}

// Evicted describes a victim pushed out by Fill.
type Evicted struct {
	LineAddr uint64
	Dirty    bool
	Valid    bool
}

// Fill inserts a line (demand fill if prefetched is false). It returns the
// evicted victim, if any. Filling a line that is already present refreshes
// its LRU position instead of duplicating it.
func (c *Cache) Fill(lineAddr uint64, prefetched, dirty bool) Evicted {
	set := int(lineAddr & c.mask)
	base := set * c.ways
	if hit := c.find(base, lineAddr); hit >= 0 {
		// Already present: refresh (a racing demand fill may beat a
		// prefetch).
		c.touch(set, base, hit)
		m := &c.meta[hit]
		m.dirty = m.dirty || dirty
		if m.prefetched && !prefetched {
			// A demand fill of a prefetched line counts as a use.
			if !m.used {
				m.used = true
				c.stats.PrefUseful++
			}
		}
		return Evicted{}
	}
	return c.fillVictim(set, base, lineAddr, prefetched, dirty)
}

// FillNew is Fill for a line the caller has proven absent, skipping the
// duplicate probe. The hierarchy uses it for fills that complete a miss:
// an MSHR-tracked line is in no cache, and while it is in flight nothing
// can insert it (writeback victims were cached lines, promotions require
// LLC presence, and duplicate requests merge in the MSHR) — and for the
// synchronous promote-on-hit fills issued right after a lookup miss.
func (c *Cache) FillNew(lineAddr uint64, prefetched, dirty bool) Evicted {
	set := int(lineAddr & c.mask)
	return c.fillVictim(set, set*c.ways, lineAddr, prefetched, dirty)
}

// fillVictim evicts the set's LRU way and installs lineAddr in its place.
func (c *Cache) fillVictim(set, base int, lineAddr uint64, prefetched, dirty bool) Evicted {
	victim := base + int(c.head[set])
	var ev Evicted
	v := &c.meta[victim]
	cold := true
	if t := c.tags[victim]; t != invalidTag {
		cold = false
		ev = Evicted{LineAddr: t, Dirty: v.dirty, Valid: true}
		c.stats.Evictions++
		if v.dirty {
			c.stats.DirtyEvicts++
		}
		if v.prefetched && !v.used {
			c.stats.PrefUnused++
		}
	}
	// Insertion policy: where the filled line enters the recency order.
	// The victim way is already the set's LRU head, so LIP's
	// insert-at-LRU is "do nothing" and the line is the next victim
	// unless a demand hit promotes it first. Cold fills (an empty way)
	// always promote: victim selection must walk the remaining empty
	// ways before any policy can sensibly apply — this also preserves
	// the lowest-empty-way victim order the recency list is built on.
	switch {
	case cold || c.insert == InsertMRU:
		c.touch(set, base, victim)
	case c.insert == InsertLIP:
		// leave at LRU
	case c.insert == InsertBIP32:
		c.bipCount++
		if c.bipCount&31 == 0 {
			c.touch(set, base, victim)
		}
	case c.insert == InsertBIP8:
		c.bipCount++
		if c.bipCount&7 == 0 {
			c.touch(set, base, victim)
		}
	}
	c.tags[victim] = lineAddr
	*v = lineMeta{dirty: dirty, prefetched: prefetched}
	c.stats.Fills++
	if prefetched {
		c.stats.PrefFills++
	}
	return ev
}

// NoteRedundantPrefetch counts a prefetch dropped because the target line
// was already cached or in flight.
func (c *Cache) NoteRedundantPrefetch() { c.stats.PrefRedundant++ }

// Reset clears contents and statistics. The insertion policy is
// configuration and survives; its epsilon counter is state and does not.
func (c *Cache) Reset() {
	c.initState()
	for i := range c.meta {
		c.meta[i] = lineMeta{}
	}
	c.stats = CacheStats{}
	c.bipCount = 0
}
