package snap

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

func TestWriterReaderRoundTrip(t *testing.T) {
	w := NewWriter()
	w.Tag(1)
	w.U8(0xab)
	w.Bool(true)
	w.Bool(false)
	w.U32(0xdeadbeef)
	w.U64(0x0123456789abcdef)
	w.I64(-42)
	w.I32(-7)
	w.Blob([]byte{1, 2, 3})
	w.Str("hello")
	w.Tag(2)

	r, err := NewReader(w.Bytes())
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	r.Expect(1)
	if got := r.U8(); got != 0xab {
		t.Errorf("U8 = %#x", got)
	}
	if !r.Bool() || r.Bool() {
		t.Error("Bool round-trip failed")
	}
	if got := r.U32(); got != 0xdeadbeef {
		t.Errorf("U32 = %#x", got)
	}
	if got := r.U64(); got != 0x0123456789abcdef {
		t.Errorf("U64 = %#x", got)
	}
	if got := r.I64(); got != -42 {
		t.Errorf("I64 = %d", got)
	}
	if got := r.I32(); got != -7 {
		t.Errorf("I32 = %d", got)
	}
	if got := r.Blob(); !reflect.DeepEqual(got, []byte{1, 2, 3}) {
		t.Errorf("Blob = %v", got)
	}
	if got := r.Str(); got != "hello" {
		t.Errorf("Str = %q", got)
	}
	r.Expect(2)
	if r.Err() != nil {
		t.Fatalf("decode error: %v", r.Err())
	}
	if r.Rest() != 0 {
		t.Errorf("%d bytes left over", r.Rest())
	}
}

func TestReaderStickyErrors(t *testing.T) {
	w := NewWriter()
	w.Tag(1)
	r, err := NewReader(w.Bytes())
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	r.Expect(9) // wrong tag
	if r.Err() == nil {
		t.Fatal("wrong tag not detected")
	}
	first := r.Err()
	_ = r.U64() // further reads keep the first error
	if r.Err() != first {
		t.Errorf("error not sticky: %v", r.Err())
	}
}

func TestReaderRejectsBadHeader(t *testing.T) {
	if _, err := NewReader([]byte("notasnap....")); err == nil {
		t.Error("bad magic accepted")
	}
	w := NewWriter()
	b := append([]byte(nil), w.Bytes()...)
	b[len(b)-4] = 99 // corrupt version
	if _, err := NewReader(b); err == nil {
		t.Error("bad version accepted")
	}
}

// TestWriterGrowPreventsReallocation checks that after Grow(n) the next
// n bytes of writes land in the same backing array.
func TestWriterGrowPreventsReallocation(t *testing.T) {
	w := NewWriter()
	const n = 1 << 20 // well past NewWriter's initial capacity
	w.Grow(n)
	start, capacity := &w.Bytes()[:1][0], cap(w.Bytes())
	for i := 0; i < n/9; i++ {
		w.U64(uint64(i))
		w.U8(uint8(i))
	}
	w.Tag(1)
	if got := &w.Bytes()[:1][0]; got != start || cap(w.Bytes()) != capacity {
		t.Errorf("writes after Grow(%d) reallocated the buffer (cap %d -> %d)", n, capacity, cap(w.Bytes()))
	}
	// The same writes without Grow do reallocate, so the check above
	// has teeth.
	w = NewWriter()
	start = &w.Bytes()[:1][0]
	for i := 0; i < n/9; i++ {
		w.U64(uint64(i))
		w.U8(uint8(i))
	}
	if &w.Bytes()[:1][0] == start {
		t.Fatal("writes past NewWriter's capacity did not reallocate; the test needs a larger n")
	}
}

func TestCheckHeaderRejectsOtherVersions(t *testing.T) {
	if err := CheckHeader(NewWriter().Bytes()); err != nil {
		t.Errorf("current header rejected: %v", err)
	}
	v1 := []byte{'N', 'O', 'C', 'S', 'N', 'A', 'P', '1', 1, 0, 0, 0}
	if err := CheckHeader(v1); err == nil {
		t.Error("NOCSNAP1 header accepted")
	}
	if _, err := NewReader(v1); err == nil {
		t.Error("NewReader accepted a NOCSNAP1 blob")
	}
	if err := CheckHeader([]byte("NOC")); err == nil {
		t.Error("short blob accepted")
	}
}

func TestReaderRaw(t *testing.T) {
	w := NewWriter()
	w.U8(1)
	w.U8(2)
	w.U8(3)
	r, err := NewReader(w.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Raw(2); string(got) != "\x01\x02" {
		t.Errorf("Raw(2) = %v", got)
	}
	if got := r.Raw(2); got != nil || r.Err() == nil {
		t.Errorf("Raw past the end = %v, err %v; want nil and a truncation error", got, r.Err())
	}
}

func TestReaderTruncation(t *testing.T) {
	w := NewWriter()
	w.U64(7)
	b := w.Bytes()[:w.Len()-2]
	r, err := NewReader(b)
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	_ = r.U64()
	if r.Err() == nil {
		t.Error("truncation not detected")
	}
}

type coveredLeaf struct {
	a int64
	b []uint32
	c string
}

type uncoveredLeaf struct {
	x int
}

type coverRoot struct {
	leaf    coveredLeaf
	orphan  uncoveredLeaf
	opaqueT opaqueType
}

type opaqueType struct {
	hidden int
}

func init() {
	Cover(coveredLeaf{}, Coverage{
		Serialized: []string{"a", "b"},
		// c deliberately missing: TestVerify checks it is reported.
	})
	Cover(coverRoot{}, Coverage{
		Serialized: []string{"leaf"},
		Waived:     map[string]string{"orphan": "test fixture", "opaqueT": "test fixture"},
	})
}

func TestVerifyReportsGaps(t *testing.T) {
	got := Verify(VerifyOptions{
		PkgPrefix: "nocsim/internal/snap",
		Opaque:    []any{opaqueType{}},
	}, coverRoot{})
	want := []string{
		"snap.coveredLeaf.c: field neither serialized nor waived",
		"snap.uncoveredLeaf: struct not registered with snap.Cover",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Verify = %q, want %q", got, want)
	}
}

func TestCoverPanicsOnUnknownField(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Cover accepted a nonexistent field")
		}
	}()
	Cover(uncoveredLeaf{}, Coverage{Serialized: []string{"nope"}})
}

// blobOf wraps payload in the current codec header: the store serves
// only blobs of this codec version.
func blobOf(payload string) []byte {
	w := NewWriter()
	w.Str(payload)
	return append([]byte(nil), w.Bytes()...)
}

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	digest := "abcdef0123456789"
	blob := blobOf("checkpoint payload")
	if err := s.Put(digest, 1000, "key-at-1000", blob); err != nil {
		t.Fatalf("Put: %v", err)
	}
	got, ok := s.Get(digest, 1000, "key-at-1000")
	if !ok || string(got) != string(blob) {
		t.Fatalf("Get = %q, %v", got, ok)
	}
	if _, ok := s.Get(digest, 2000, ""); ok {
		t.Error("Get at absent cycle succeeded")
	}
	if _, ok := s.Get(digest, 1000, "wrong-key"); ok {
		t.Error("Get with wrong key succeeded")
	}
	st := s.Stats()
	// The wrong-key read deletes the entry (it is indistinguishable
	// from corruption), so only the counters below are stable.
	if st.Writes != 1 || st.Hits != 1 || st.Misses != 2 || st.Corrupt != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestStoreFindLongestPrefix(t *testing.T) {
	s, err := NewStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	digest := "feedface00112233"
	for _, c := range []int64{500, 1500, 2500} {
		if err := s.Put(digest, c, "k", blobOf("blob")); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		max  int64
		want int64
		ok   bool
	}{
		{3000, 2500, true},
		{2500, 2500, true},
		{2000, 1500, true},
		{499, 0, false},
	}
	for _, c := range cases {
		got, ok := s.Find(digest, c.max)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("Find(max=%d) = %d, %v; want %d, %v", c.max, got, ok, c.want, c.ok)
		}
	}
	if _, ok := s.Find("0000000000000000", 3000); ok {
		t.Error("Find for unknown digest succeeded")
	}
}

func TestStoreDetectsCorruption(t *testing.T) {
	s, err := NewStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	digest := "deadbeefcafef00d"
	if err := s.Put(digest, 100, "k", blobOf("payload")); err != nil {
		t.Fatal(err)
	}
	path := s.path(digest, 100)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(digest, 100, "k"); ok {
		t.Fatal("corrupt entry served")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Error("corrupt entry not repaired (deleted)")
	}
	if st := s.Stats(); st.Corrupt != 1 {
		t.Errorf("corrupt count = %d, want 1", st.Corrupt)
	}
}

func TestStoreEviction(t *testing.T) {
	dir := t.TempDir()
	// Cap small enough that only ~2 of the 4 entries fit.
	blob := blobOf(string(make([]byte, 1000)))
	s, err := NewStore(dir, 2600)
	if err != nil {
		t.Fatal(err)
	}
	digests := []string{"aa11", "bb22", "cc33", "dd44"}
	for i, d := range digests {
		if err := s.Put(d+"0000000000000000", int64(i*100), "k", blob); err != nil {
			t.Fatal(err)
		}
		// Space the mtimes out so oldest-first is well defined even on
		// coarse filesystem timestamp granularity.
		path := s.path(d+"0000000000000000", int64(i*100))
		mt := time.Unix(1700000000+int64(i)*3600, 0)
		if err := os.Chtimes(path, mt, mt); err != nil {
			t.Fatal(err)
		}
	}
	// One more write triggers eviction of the oldest entries.
	if err := s.Put("ee550000000000000000", 400, "k", blob); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Bytes > 2600 {
		t.Errorf("store size %d exceeds cap", st.Bytes)
	}
	if st.Evicted == 0 {
		t.Error("nothing evicted")
	}
	// The newest write must survive.
	if _, ok := s.Get("ee550000000000000000", 400, "k"); !ok {
		t.Error("newest entry evicted")
	}
	// No stray temp files.
	matches, _ := filepath.Glob(filepath.Join(dir, "*", ".snap-*"))
	if len(matches) != 0 {
		t.Errorf("stray temp files: %v", matches)
	}
}

// TestStoreStaleEntryMisses checks that an intact entry holding a blob
// of an older codec version is a miss: deleted, counted as stale (not
// corrupt), and never served.
func TestStoreStaleEntryMisses(t *testing.T) {
	s, err := NewStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	digest := "0123456789abcdef"
	v1 := []byte{'N', 'O', 'C', 'S', 'N', 'A', 'P', '1', 1, 0, 0, 0, 0xA7, 0x30}
	if err := s.Put(digest, 100, "k", v1); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(digest, 100, "k"); ok {
		t.Fatal("NOCSNAP1 entry served")
	}
	if _, err := os.Stat(s.path(digest, 100)); !os.IsNotExist(err) {
		t.Error("stale entry not deleted")
	}
	if _, ok := s.Find(digest, 100); ok {
		t.Error("Find still reports the stale entry")
	}
	st := s.Stats()
	if st.Stale != 1 || st.Corrupt != 0 || st.Misses != 1 || st.Hits != 0 {
		t.Errorf("stats = %+v, want 1 stale miss", st)
	}
}
