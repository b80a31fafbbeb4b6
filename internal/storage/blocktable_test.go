package storage

import (
	"math/rand"
	"sort"
	"testing"
)

// checkTable compares a blockTable with its map oracle: length, every
// lookup, and a walk that must visit exactly the oracle's entries in
// ascending address order.
func checkTable(t *testing.T, stage string, tb *blockTable, oracle map[int64]int64, probes []int64) {
	t.Helper()
	if tb.len() != len(oracle) {
		t.Fatalf("%s: len %d, oracle %d", stage, tb.len(), len(oracle))
	}
	for _, vba := range probes {
		got, ok := tb.get(vba)
		want, wok := oracle[vba]
		if ok != wok || got != want || tb.has(vba) != wok {
			t.Fatalf("%s: get(%d) = %d,%v; oracle %d,%v", stage, vba, got, ok, want, wok)
		}
	}
	keys := make([]int64, 0, len(oracle))
	for vba := range oracle {
		keys = append(keys, vba)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	i := 0
	tb.each(func(vba, val int64) {
		if i >= len(keys) || vba != keys[i] || val != oracle[vba] {
			t.Fatalf("%s: walk step %d visited %d=%d", stage, i, vba, val)
		}
		i++
	})
	if i != len(keys) {
		t.Fatalf("%s: walk visited %d entries, oracle has %d", stage, i, len(keys))
	}
}

// TestBlockTableMatchesMapOracle drives the paged table and a map
// through the same sets, overwrites and deletes: page boundaries
// (255/256/257), address 0, sparse high addresses, value 0 (stored as
// 1, so it must not read as absent), and clear-then-reuse.
func TestBlockTableMatchesMapOracle(t *testing.T) {
	edges := []int64{0, 1, 254, 255, 256, 257, 511, 512, 513, 1 << 20, 1<<20 + 255, 1<<24 + 1}
	probes := append([]int64{2, 258, 1000, 1<<20 - 1, 1<<20 + 256}, edges...)

	var tb blockTable
	oracle := make(map[int64]int64)
	for i, vba := range edges {
		tb.set(vba, int64(i)) // edges[0] stores value 0
		oracle[vba] = int64(i)
	}
	checkTable(t, "edges set", &tb, oracle, probes)

	tb.set(256, 99) // overwrite keeps the count
	oracle[256] = 99
	tb.del(257)
	delete(oracle, 257)
	tb.del(257)  // absent: no-op
	tb.del(1000) // never-allocated page: no-op
	tb.del(1 << 30)
	checkTable(t, "overwrite and delete", &tb, oracle, probes)

	pages := len(tb.pages)
	tb.clear()
	checkTable(t, "cleared", &tb, map[int64]int64{}, probes)
	if len(tb.pages) != pages {
		t.Fatalf("clear dropped the directory: %d -> %d pages", pages, len(tb.pages))
	}

	// Reuse after clear, then random traffic over a few pages.
	oracle = make(map[int64]int64)
	rng := rand.New(rand.NewSource(1))
	for step := 0; step < 5000; step++ {
		vba := int64(rng.Intn(3 * pageLen))
		if rng.Intn(50) == 0 {
			vba = 1<<20 + int64(rng.Intn(pageLen))
		}
		switch rng.Intn(4) {
		case 0:
			tb.del(vba)
			delete(oracle, vba)
		case 1:
			if step%500 == 0 {
				tb.clear()
				oracle = make(map[int64]int64)
			}
		default:
			val := rng.Int63n(1 << 40)
			tb.set(vba, val)
			oracle[vba] = val
		}
	}
	checkTable(t, "random reuse", &tb, oracle, append(probes, 3, 300, 700))
}

// TestBlockTableRejectsNegativeAddress: a negative block address is a
// caller bug and must not alias a valid one.
func TestBlockTableRejectsNegativeAddress(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("set(-1) did not panic")
		}
	}()
	var tb blockTable
	tb.set(-1, 0)
}

// legacyDelta and legacyVolume are a verbatim copy of the map-based
// redo-log index and merge this package used before the paged table:
// the oracle the table-backed Volume must reproduce exactly.
type legacyDelta struct {
	Index   map[int64]int64
	Order   []int64
	BaseLBA int64
}

func newLegacyDelta(base int64) *legacyDelta {
	return &legacyDelta{Index: make(map[int64]int64), BaseLBA: base}
}

func (d *legacyDelta) Bytes() int64 { return int64(len(d.Order)) * BlockSize }

func (d *legacyDelta) lookup(vba int64) int64 {
	slot, ok := d.Index[vba]
	if !ok {
		return -1
	}
	return d.BaseLBA + slot*BlockSize
}

func (d *legacyDelta) append(vba int64) int64 {
	slot := int64(len(d.Order))
	d.Index[vba] = slot
	d.Order = append(d.Order, vba)
	return d.BaseLBA + slot*BlockSize
}

type legacyVolume struct {
	Agg, Cur *legacyDelta
	content  map[int64]int64
	writeSeq int64
}

func newLegacyVolume() *legacyVolume {
	return &legacyVolume{Agg: newLegacyDelta(AggBase), Cur: newLegacyDelta(CurBase), content: make(map[int64]int64)}
}

// write is the old Write's index bookkeeping; it reports the number of
// blocks written.
func (v *legacyVolume) write(off, n int64) int {
	blocks := 0
	for b := off / BlockSize; b <= (off+n-1)/BlockSize; b++ {
		v.writeSeq++
		v.content[b] = v.writeSeq
		v.Cur.append(b)
		blocks++
	}
	return blocks
}

func (v *legacyVolume) Merge(reorder bool, isFree func(vba int64) bool) int64 {
	merged := make(map[int64]bool, len(v.Agg.Index)+len(v.Cur.Index))
	for vba := range v.Agg.Index {
		merged[vba] = true
	}
	for vba := range v.Cur.Index {
		merged[vba] = true
	}
	newAgg := newLegacyDelta(AggBase)
	vbas := make([]int64, 0, len(merged))
	for vba := range merged {
		if isFree != nil && isFree(vba) {
			delete(v.content, vba)
			continue
		}
		vbas = append(vbas, vba)
	}
	if reorder {
		sort.Slice(vbas, func(i, j int) bool { return vbas[i] < vbas[j] })
	} else {
		vbas = vbas[:0]
		seen := make(map[int64]bool)
		for _, vba := range append(append([]int64{}, v.Agg.Order...), v.Cur.Order...) {
			if seen[vba] || (isFree != nil && isFree(vba)) || !merged[vba] {
				continue
			}
			seen[vba] = true
			vbas = append(vbas, vba)
		}
	}
	for _, vba := range vbas {
		newAgg.append(vba)
	}
	v.Agg = newAgg
	v.Cur = newLegacyDelta(CurBase)
	return newAgg.Bytes()
}

// sortedBlocks lists a map's entries in address order, optionally
// without the freed ones.
func sortedBlocks(m map[int64]int64, isFree func(vba int64) bool) []Block {
	out := make([]Block, 0, len(m))
	for vba, tag := range m {
		if isFree == nil || !isFree(vba) {
			out = append(out, Block{vba, tag})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].VBA < out[j].VBA })
	return out
}

// TestMergeMatchesMapSortOracle runs random write/merge/free-block
// histories through the table-backed Volume and the legacy map+sort
// oracle side by side. After every step the aggregated log order, slot
// counts, byte sizes, per-block LBAs, the content view and the epoch
// view must agree, and so must every Merge result — reordering or not.
func TestMergeMatchesMapSortOracle(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s, v := newVol(seed, Optimized)
		v.Age()
		o := newLegacyVolume()
		addr := func() int64 {
			switch rng.Intn(10) {
			case 0:
				return int64(pageLen - 2 + rng.Intn(4)) // straddle a page edge
			case 1:
				return 1<<18 + int64(rng.Intn(8)) // sparse, far away
			default:
				return int64(rng.Intn(3 * pageLen))
			}
		}
		probes := []int64{0, pageLen - 1, pageLen, 1 << 18}
		for step := 0; step < 60; step++ {
			if rng.Intn(5) > 0 {
				ops, bytes := v.Disk.WriteOps, v.Disk.WriteBytes
				writes, slots := int64(1+rng.Intn(40)), 0
				for w := int64(0); w < writes; w++ {
					off := addr()*BlockSize + int64(rng.Intn(2))*int64(rng.Intn(BlockSize))
					n := int64(1 + rng.Intn(3*BlockSize))
					v.Write(off, n, nil)
					slots += o.write(off, n)
					probes = append(probes, off/BlockSize)
				}
				s.Run()
				// Each write is one request covering its contiguous log span.
				if v.Disk.WriteOps-ops != writes || v.Disk.WriteBytes-bytes != int64(slots)*BlockSize {
					t.Fatalf("seed %d step %d: %d writes of %d blocks issued %d requests of %d bytes",
						seed, step, writes, slots, v.Disk.WriteOps-ops, v.Disk.WriteBytes-bytes)
				}
			} else {
				var isFree func(int64) bool
				if k := rng.Intn(4); k > 0 {
					r := int64(rng.Intn(k + 1))
					isFree = func(vba int64) bool { return vba%int64(k+1) == r }
				}
				want := sortedBlocks(o.Cur.Index, isFree)
				for i := range want {
					want[i].Tag = o.content[want[i].VBA]
				}
				if d := diffBlocks(v.EpochBlocks(isFree), want); d != "" {
					t.Fatalf("seed %d step %d: epoch view: %s", seed, step, d)
				}
				reorder := rng.Intn(6) > 0
				if got, want := v.Merge(reorder, isFree), o.Merge(reorder, isFree); got != want {
					t.Fatalf("seed %d step %d: Merge(%v) = %d, oracle %d", seed, step, reorder, got, want)
				}
			}
			if len(v.Agg.Order) != len(o.Agg.Order) || v.Agg.Slots() != len(o.Agg.Order) || v.Agg.Bytes() != o.Agg.Bytes() {
				t.Fatalf("seed %d step %d: agg %d vbas / %d slots, oracle %d", seed, step, len(v.Agg.Order), v.Agg.Slots(), len(o.Agg.Order))
			}
			for i := range o.Agg.Order {
				if v.Agg.Order[i] != o.Agg.Order[i] {
					t.Fatalf("seed %d step %d: agg slot %d holds %d, oracle %d", seed, step, i, v.Agg.Order[i], o.Agg.Order[i])
				}
			}
			if v.Cur.Slots() != len(o.Cur.Order) || v.Cur.Bytes() != o.Cur.Bytes() {
				t.Fatalf("seed %d step %d: cur %d slots, oracle %d", seed, step, v.Cur.Slots(), len(o.Cur.Order))
			}
			for _, vba := range probes {
				if v.Cur.lookup(vba) != o.Cur.lookup(vba) || v.Agg.lookup(vba) != o.Agg.lookup(vba) {
					t.Fatalf("seed %d step %d: block %d resolves to %d/%d, oracle %d/%d", seed, step, vba,
						v.Cur.lookup(vba), v.Agg.lookup(vba), o.Cur.lookup(vba), o.Agg.lookup(vba))
				}
			}
			if d := diffBlocks(v.Snapshot(nil), sortedBlocks(o.content, nil)); d != "" {
				t.Fatalf("seed %d step %d: content view: %s", seed, step, d)
			}
		}
	}
}

// TestEpochAddrPinned pins content addresses to the values the
// map-based epoch representation produced: the block list's layout
// changed, the FNV input (blocks in address order, then the page
// count) did not, so no stored address may move.
func TestEpochAddrPinned(t *testing.T) {
	cases := []struct {
		e    Epoch
		want Addr
	}{
		{Epoch{}, 0xa8c7f832281a39c5},
		{Epoch{MemPages: 7}, 0x4bd7a317074c5b62},
		{Epoch{Blocks: []Block{{0, 1}}}, 0x32d42a0eed270ac4},
		{Epoch{Blocks: []Block{{7, 70}, {8, 80}}, MemPages: 2}, 0x3c20d64818a068be},
		{Epoch{Blocks: []Block{{255, 3}, {256, 4}, {257, 5}, {1 << 30, 9}}, MemPages: 4096}, 0x941b1e8be301e57c},
		{Epoch{Blocks: []Block{{1, 1}, {500, 12345678901}, {999, 1}}, MemPages: 1}, 0xc547d8a4f918d112},
		{Epoch{ID: 42, Blocks: []Block{{7, 70}, {8, 80}}, MemPages: 2}, 0x3c20d64818a068be}, // ID is not content
	}
	for i, c := range cases {
		if got := c.e.addr(); got != c.want {
			t.Errorf("case %d: addr %#x, want %#x", i, uint64(got), uint64(c.want))
		}
	}
	// A pruned chain: the base is a fold of several epochs.
	l := NewLineage(2)
	for i := int64(0); i < 6; i++ {
		l.Commit([]Block{{i, i + 1}, {i + 100, i + 2}}, 1)
	}
	want := []Segment{{0xf763170f9f09d1c5, 8 * BlockSize}, {0xb7b751763165d3cb, 2 * BlockSize}, {0x1aec4ec3aafbd389, 2 * BlockSize}}
	got := l.Segments()
	if len(got) != len(want) {
		t.Fatalf("segments %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("segment %d: %#x/%d, want %#x/%d", i, uint64(got[i].Addr), got[i].Bytes, uint64(want[i].Addr), want[i].Bytes)
		}
	}
}

// TestVolumeWriteAllocationBudget: once the table pages, the log order
// and the disk queue are warm, a write of one to four blocks allocates
// only the DiskRequest it submits. The volume is aged so no metadata
// write (a second request every MetadataEvery blocks) is due.
func TestVolumeWriteAllocationBudget(t *testing.T) {
	s, v := newVol(1, Optimized)
	v.Age()
	for b := int64(0); b < 64; b++ {
		v.Write(b*BlockSize, BlockSize, nil)
	}
	s.Run()
	i := int64(0)
	allocs := testing.AllocsPerRun(200, func() {
		v.Write((i%60)*BlockSize, (1+i%4)*BlockSize, nil)
		i++
		s.Run()
	})
	if allocs > 1 {
		t.Fatalf("warmed Volume.Write allocates %.1f times per call, want <= 1 (the DiskRequest)", allocs)
	}
}
