package cache

import (
	"bytes"
	"testing"

	"nocsim/internal/snap"
)

// validLines counts the cache's valid lines.
func validLines(c *L1) int {
	n := 0
	for _, m := range c.meta {
		n += int(m & metaValid)
	}
	return n
}

// TestL1SnapshotSize pins the L1 section's shape: one bitmap bit per
// line, then a tag and a meta byte per valid line, plus the section
// tag, the line count and three counters.
func TestL1SnapshotSize(t *testing.T) {
	for _, cfg := range []L1Config{
		{}, // 4096 lines, 4-way
		{SizeBytes: 192, Ways: 3, BlockBytes: 32}, // 6 lines: a partial bitmap byte
	} {
		c := NewL1(cfg)
		lines := c.Sets() * c.Ways()
		for i := 0; i < lines/3; i++ {
			c.AccessRW(uint64(i*7)*32, i%2 == 0)
		}
		w := snap.NewWriter()
		before := w.Len()
		c.Snapshot(w)
		valid := validLines(c)
		want := 2 + 4 + 3*8 + (lines+7)/8 + 9*valid
		if got := w.Len() - before; got != want {
			t.Errorf("%d lines, %d valid: section is %d bytes, want %d", lines, valid, got, want)
		}
		if valid == 0 {
			t.Errorf("%d lines: no valid line to encode", lines)
		}
	}
}

// TestL1SnapshotRoundTrip restores a snapshot into a pre-warmed cache
// and checks that the result re-encodes to the same bytes and that the
// warm lines the blob marks invalid are gone.
func TestL1SnapshotRoundTrip(t *testing.T) {
	c := NewL1(L1Config{SizeBytes: 1024, Ways: 4, BlockBytes: 32})
	c.AccessRW(0x000, true)
	c.AccessRW(0x100, false)
	c.AccessRW(0x000, false)
	w := snap.NewWriter()
	c.Snapshot(w)

	fresh := NewL1(L1Config{SizeBytes: 1024, Ways: 4, BlockBytes: 32})
	for a := uint64(0x2000); a < 0x2400; a += 32 {
		fresh.Warm(a)
	}
	r := mustReader(t, w.Bytes())
	fresh.Restore(r)
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	if fresh.Probe(0x2000) {
		t.Error("pre-warmed line survived a restore that marks it invalid")
	}
	if !fresh.Probe(0x000) || !fresh.Probe(0x100) {
		t.Error("restored lines missing")
	}
	again := snap.NewWriter()
	fresh.Snapshot(again)
	if !bytes.Equal(w.Bytes(), again.Bytes()) {
		t.Error("restored cache re-encodes differently")
	}
}

// TestL1RestoreRejectsBadRanks checks that a set whose ranks are not a
// permutation of 0..k-1 fails to decode instead of corrupting LRU.
func TestL1RestoreRejectsBadRanks(t *testing.T) {
	c := NewL1(L1Config{SizeBytes: 128, Ways: 2, BlockBytes: 32})
	c.Access(0x000)
	c.Access(0x040) // set 0 holds ranks 0 and 1
	w := snap.NewWriter()
	c.Snapshot(w)
	blob := append([]byte(nil), w.Bytes()...)
	// Header, section tag, line count, one bitmap byte; then the first
	// valid line's tag and meta byte.
	meta := 12 + 2 + 4 + 1 + 8
	if blob[meta]&metaValid == 0 {
		t.Fatalf("byte %d is %#x, not a meta byte", meta, blob[meta])
	}
	blob[meta] ^= rankOne // both lines now claim the same rank
	c2 := NewL1(L1Config{SizeBytes: 128, Ways: 2, BlockBytes: 32})
	r := mustReader(t, blob)
	c2.Restore(r)
	if r.Err() == nil {
		t.Error("duplicate LRU ranks accepted")
	}
}

func mustReader(t *testing.T, b []byte) *snap.Reader {
	t.Helper()
	r, err := snap.NewReader(b)
	if err != nil {
		t.Fatal(err)
	}
	return r
}
