package storage

import (
	"testing"

	"emucheck/internal/sim"
)

func TestParseBackendKind(t *testing.T) {
	cases := []struct {
		in   string
		want BackendKind
		ok   bool
	}{
		{"", MemKind, true},
		{"mem", MemKind, true},
		{"disk", DiskKind, true},
		{"remote", RemoteKind, true},
		{"tape", MemKind, false},
	}
	for _, c := range cases {
		got, err := ParseBackendKind(c.in)
		if (err == nil) != c.ok || got != c.want {
			t.Errorf("ParseBackendKind(%q) = %v, %v; want %v ok=%v", c.in, got, err, c.want, c.ok)
		}
	}
}

func TestMemBackendZeroCost(t *testing.T) {
	b := NewTier(MemKind, 0)
	if !b.Put(1, 5<<20) || !b.Has(1) {
		t.Fatal("mem put failed")
	}
	if b.Cost(1<<30) != 0 {
		t.Fatal("mem tier must be free")
	}
	if b.StoredBytes() != 5<<20 || b.SegmentCount() != 1 {
		t.Fatalf("stored %d/%d", b.StoredBytes(), b.SegmentCount())
	}
	b.Delete(1)
	if b.Has(1) || b.StoredBytes() != 0 {
		t.Fatal("delete did not forget the segment")
	}
}

func TestDiskBackendCapacitySpill(t *testing.T) {
	b := NewTier(DiskKind, 10<<20)
	if !b.Put(1, 6<<20) {
		t.Fatal("first segment should fit")
	}
	if b.Put(2, 6<<20) {
		t.Fatal("second segment should spill: 12 MB into a 10 MB disk")
	}
	if b.SpillSegments != 1 || b.SpillBytes != 6<<20 {
		t.Fatalf("spill ledger: %d segs / %d bytes", b.SpillSegments, b.SpillBytes)
	}
	// Re-putting a resident segment at a new size must not double-count.
	if !b.Put(1, 4<<20) {
		t.Fatal("shrinking a resident segment should fit")
	}
	if b.StoredBytes() != 4<<20 {
		t.Fatalf("stored %d after re-put", b.StoredBytes())
	}
	if !b.Put(2, 6<<20) {
		t.Fatal("after the shrink the second segment fits")
	}
	// Costs: seek plus bytes at the sequential rate.
	got := b.Cost(70 << 20)
	want := b.Seek + sim.Second
	if got != want {
		t.Fatalf("Cost(70MB) = %v, want %v", got, want)
	}
}

func TestRemoteBackendRTT(t *testing.T) {
	b := NewTier(RemoteKind, 0)
	if b.Cost(1<<20) != b.RTT {
		t.Fatal("remote cost must be the round trip")
	}
	if b.Cost(0) != 0 {
		t.Fatal("empty put is free")
	}
	for i := Addr(0); i < 100; i++ {
		if !b.Put(i, 1<<20) {
			t.Fatal("the pool never fills")
		}
	}
	if b.SegmentCount() != 100 {
		t.Fatalf("segments %d", b.SegmentCount())
	}
}

// TestTierCostMatchesPerTierFormulas pins Tier.Cost bit for bit to each
// tier's cost formula: seek + n at the sequential rate on the snapshot
// disk, one round trip on the remote pool, zero for an empty or
// negative transfer.
func TestTierCostMatchesPerTierFormulas(t *testing.T) {
	disk := NewTier(DiskKind, 0)
	remote := NewTier(RemoteKind, 0)
	diskCost := func(n int64) sim.Time {
		if n <= 0 {
			return 0
		}
		return DefaultDiskSeek + sim.Time(float64(n)/float64(DefaultDiskRate)*float64(sim.Second))
	}
	remoteCost := func(n int64) sim.Time {
		if n <= 0 {
			return 0
		}
		return DefaultRemoteRTT
	}
	for _, n := range []int64{-1, 0, 1, 4096, 70 << 20} {
		if got, want := disk.Cost(n), diskCost(n); got != want {
			t.Errorf("disk Cost(%d) = %d, want %d", n, got, want)
		}
		if got, want := remote.Cost(n), remoteCost(n); got != want {
			t.Errorf("remote Cost(%d) = %d, want %d", n, got, want)
		}
	}
}

// TestTierCapacityBoundary: a bounded tier accepts a segment that fills
// it exactly and spills the first byte past it, with Fits agreeing and
// only refused puts charged to the spill ledger; an unbounded tier
// never refuses.
func TestTierCapacityBoundary(t *testing.T) {
	b := NewTier(DiskKind, 8<<20)
	if !b.Fits(8<<20) || b.Fits(8<<20+1) {
		t.Fatal("Fits must accept exactly the capacity and nothing more")
	}
	if b.Put(1, 8<<20+1) {
		t.Fatal("a segment one byte over capacity must spill")
	}
	if b.SpillSegments != 1 || b.SpillBytes != 8<<20+1 || b.SegmentCount() != 0 {
		t.Fatalf("spill ledger %d/%d, %d resident", b.SpillSegments, b.SpillBytes, b.SegmentCount())
	}
	if !b.Put(1, 8<<20) {
		t.Fatal("a segment of exactly the capacity must fit")
	}
	if b.Fits(1) || b.Put(2, 1) {
		t.Fatal("a full tier must refuse one more byte")
	}
	if b.SpillSegments != 2 || b.SpillBytes != 8<<20+2 {
		t.Fatalf("spill ledger %d/%d after the second refusal", b.SpillSegments, b.SpillBytes)
	}
	b.Delete(1)
	if !b.Fits(8<<20) || !b.Put(2, 8<<20) {
		t.Fatal("deleting a segment must free its budget share")
	}

	for _, kind := range []BackendKind{MemKind, RemoteKind} {
		u := NewTier(kind, 1<<20) // the bound applies to the disk tier only
		if u.Capacity != 0 || !u.Fits(1<<62) {
			t.Fatalf("%v tier is bounded: capacity %d", kind, u.Capacity)
		}
		for i := Addr(0); i < 4; i++ {
			if !u.Put(i, 1<<40) {
				t.Fatalf("%v tier refused a put", kind)
			}
		}
		if u.SpillSegments != 0 || u.StoredBytes() != 4<<40 {
			t.Fatalf("%v tier: %d spills, %d stored", kind, u.SpillSegments, u.StoredBytes())
		}
	}
}

// TestChainStoreMirrorsBackend proves MirrorTo keeps a tier's resident
// set exactly equal to the chain store's entries — across commits,
// dedup, forks, prune folds (re-keying the base), and branch release
// GC — and that segments leaving the store leave the mirrored cache.
func TestChainStoreMirrorsBackend(t *testing.T) {
	cs := NewChainStore()
	be := NewTier(RemoteKind, 0)
	cache := NewDeltaCache(64<<20, cs.Refs)
	cs.MirrorTo(be, cache)
	cached := make(map[Addr]bool)

	check := func(stage string) {
		t.Helper()
		if be.SegmentCount() != cs.Entries() {
			t.Fatalf("%s: backend holds %d segments, store %d entries", stage, be.SegmentCount(), cs.Entries())
		}
		if be.StoredBytes() != cs.StoredBytes() {
			t.Fatalf("%s: backend %d bytes, store %d bytes", stage, be.StoredBytes(), cs.StoredBytes())
		}
		for a := range cs.epochs {
			if !be.Has(a) {
				t.Fatalf("%s: store entry %v missing from backend", stage, a)
			}
		}
		// Segments that left the store must have left the cache too.
		for a := range cached {
			if cache.Contains(a) && cs.Refs(a) == 0 {
				t.Fatalf("%s: dead segment %v still cached", stage, a)
			}
		}
	}
	cacheChain := func(l *Lineage) {
		for _, seg := range l.Segments() {
			cache.Put(seg.Addr, seg.Bytes)
			cached[seg.Addr] = true
		}
	}

	l := cs.NewLineage(2)
	check("empty lineage")
	for i := int64(0); i < 6; i++ {
		l.Commit([]Block{{i, i + 1}, {i + 100, i + 2}}, 1)
		cacheChain(l)
		check("commit (with prune folds past depth 2)")
	}
	fork := l.Fork()
	check("fork (shared by reference)")
	fork.Commit([]Block{{999, 1}}, 1)
	cacheChain(fork)
	check("divergent commit")
	l.Release()
	check("parent released")
	fork.Release()
	check("fork released")
	if cs.Entries() != 0 || be.SegmentCount() != 0 || cache.Len() != 0 {
		t.Fatalf("everything released: store %d, backend %d, cache %d", cs.Entries(), be.SegmentCount(), cache.Len())
	}
}
