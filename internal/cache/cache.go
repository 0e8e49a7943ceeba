// Package cache models the memory-side substrates of the simulated CMP:
// the private per-core L1 cache (Table 2: 128 KB, 4-way, 32-byte blocks,
// LRU) and the mapping of L1 misses to the shared distributed L2 slice
// that services them — either per-block XOR interleaving across all
// nodes (the paper's default) or the randomized exponential-locality
// model of §3.2 (with a power-law alternative) used for the scalability
// studies. The shared L2 itself is perfect (Table 2), so every miss is
// serviced by its home node without going to memory.
package cache

import "fmt"

// L1Config describes a private L1 cache.
type L1Config struct {
	// SizeBytes is total capacity; 0 means 128 KiB.
	SizeBytes int
	// Ways is the associativity; 0 means 4.
	Ways int
	// BlockBytes is the line size; 0 means 32. Must be a power of two.
	BlockBytes int
}

func (c *L1Config) setDefaults() {
	if c.SizeBytes == 0 {
		c.SizeBytes = 128 << 10
	}
	if c.Ways == 0 {
		c.Ways = 4
	}
	if c.BlockBytes == 0 {
		c.BlockBytes = 32
	}
}

// Per-line meta byte: bit 0 valid, bit 1 dirty, bits 2-7 the line's
// LRU rank among its set's valid lines (0 = most recently used). An
// invalid line's meta is zero.
const (
	metaValid = 1 << 0
	metaDirty = 1 << 1
	rankShift = 2
	rankOne   = 1 << rankShift
	flagMask  = rankOne - 1
)

// maxWays is the largest associativity the rank field can order.
const maxWays = 1 << (8 - rankShift)

// L1 is a set-associative write-allocate cache with true-LRU replacement.
// It models hit/miss behaviour only; data values are not stored. Each
// line is a tag plus one meta byte (valid, dirty, LRU rank), so the
// valid lines of a set always hold the ranks 0..k-1 exactly once.
type L1 struct {
	sets      int
	ways      int
	blockBits uint
	setMask   uint64
	tags      []uint64
	meta      []uint8

	hits, misses, writebacks int64
}

// NewL1 builds an L1 cache. It panics on non-power-of-two geometry and
// on more ways than the rank field can order (64).
func NewL1(cfg L1Config) *L1 {
	cfg.setDefaults()
	if cfg.BlockBytes&(cfg.BlockBytes-1) != 0 {
		panic("cache: block size must be a power of two")
	}
	if cfg.Ways > maxWays {
		panic(fmt.Sprintf("cache: %d ways exceed the LRU rank field's %d", cfg.Ways, maxWays))
	}
	blocks := cfg.SizeBytes / cfg.BlockBytes
	if blocks == 0 || blocks%cfg.Ways != 0 {
		panic(fmt.Sprintf("cache: bad geometry %d bytes / %d-way / %dB blocks",
			cfg.SizeBytes, cfg.Ways, cfg.BlockBytes))
	}
	sets := blocks / cfg.Ways
	if sets&(sets-1) != 0 {
		panic("cache: set count must be a power of two")
	}
	bb := uint(0)
	for 1<<bb < cfg.BlockBytes {
		bb++
	}
	return &L1{
		sets:      sets,
		ways:      cfg.Ways,
		blockBits: bb,
		setMask:   uint64(sets - 1),
		tags:      make([]uint64, blocks),
		meta:      make([]uint8, blocks),
	}
}

// Sets returns the number of sets.
func (c *L1) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *L1) Ways() int { return c.ways }

// BlockBytes returns the line size.
func (c *L1) BlockBytes() int { return 1 << c.blockBits }

// Block returns the block address (address with offset bits dropped).
func (c *L1) Block(addr uint64) uint64 { return addr >> c.blockBits }

// Access looks up addr as a load, allocating on miss, and reports
// whether it hit. Evicted dirty blocks are dropped (use AccessRW to
// observe writebacks).
func (c *L1) Access(addr uint64) bool {
	hit, _, _ := c.AccessRW(addr, false)
	return hit
}

// AccessRW looks up addr, allocating on miss. write marks the line
// dirty (write-allocate, write-back). When a miss evicts a dirty line,
// wb is true and wbAddr is the evicted block's address — the simulator
// turns it into a one-way writeback packet to the block's home slice.
// A miss fills the set's last invalid way, or else evicts its least
// recently used line.
func (c *L1) AccessRW(addr uint64, write bool) (hit bool, wbAddr uint64, wb bool) {
	block := addr >> c.blockBits
	base := int(block&c.setMask) * c.ways
	set := c.meta[base : base+c.ways]
	tags := c.tags[base : base+c.ways]
	dirty := uint8(0)
	if write {
		dirty = metaDirty
	}
	for i, m := range set {
		if tags[i] == block && m&metaValid != 0 {
			age(set, m&^flagMask)
			set[i] = m&metaDirty | dirty | metaValid
			c.hits++
			return true, 0, false
		}
	}
	c.misses++
	// A full set's valid lines hold every rank, so its least recently
	// used line is the one of rank ways-1.
	lruRank := uint8(c.ways-1) << rankShift
	invalid, lru := -1, 0
	for i, m := range set {
		if m&metaValid == 0 {
			invalid = i
		}
		if m >= lruRank {
			lru = i
		}
	}
	victim := lru
	if invalid >= 0 {
		victim = invalid
	} else if set[victim]&metaDirty != 0 {
		wb = true
		wbAddr = tags[victim] << c.blockBits
		c.writebacks++
	}
	// Every valid line ages; the victim is overwritten below.
	for i, m := range set {
		set[i] = m + (m&metaValid)<<rankShift
	}
	tags[victim] = block
	set[victim] = dirty | metaValid
	return false, wbAddr, wb
}

// age adds one to the rank of every valid line of set whose meta byte
// is below bound: bound is the rank bits of the line becoming most
// recently used, so exactly the lines used more recently than it age.
func age(set []uint8, bound uint8) {
	if bound == 0 {
		return
	}
	for i, m := range set {
		// Branch-free m-1 < bound-1, which is m < bound for a valid
		// line; an invalid line's 0 wraps to 0xFF and never ages.
		lt := (uint32(m-1) - uint32(bound-1)) >> 31
		set[i] = m + uint8(lt)<<rankShift
	}
}

// Warm inserts addr's block without touching the hit/miss counters;
// used to preload a working set so measurements start from a warm cache.
func (c *L1) Warm(addr uint64) {
	h, m, w := c.hits, c.misses, c.writebacks
	c.Access(addr)
	c.hits, c.misses, c.writebacks = h, m, w
}

// Probe reports whether addr is resident without updating LRU state or
// allocating.
func (c *L1) Probe(addr uint64) bool {
	block := addr >> c.blockBits
	base := int(block&c.setMask) * c.ways
	for i := base; i < base+c.ways; i++ {
		if c.meta[i]&metaValid != 0 && c.tags[i] == block {
			return true
		}
	}
	return false
}

// Hits returns the number of hits observed.
func (c *L1) Hits() int64 { return c.hits }

// Misses returns the number of misses observed.
func (c *L1) Misses() int64 { return c.misses }

// Writebacks returns the number of dirty evictions observed.
func (c *L1) Writebacks() int64 { return c.writebacks }

// MissRate returns misses / accesses.
func (c *L1) MissRate() float64 {
	total := c.hits + c.misses
	if total == 0 {
		return 0
	}
	return float64(c.misses) / float64(total)
}

// Reset clears contents and counters.
func (c *L1) Reset() {
	clear(c.meta)
	c.hits, c.misses, c.writebacks = 0, 0, 0
}
