package storage

import (
	"sort"
	"testing"
)

// FuzzChainStoreOps decodes bytes into a sequence of chain-store
// operations — new lineage, commit, fork, retroactive drop, release,
// and a GC sweep that releases a subset of branches — and checks after
// every step that ChainStore.Audit is clean against the references the
// live lineages imply, that the mirrored tier holds exactly the
// store's entries, and that each live lineage materializes to what a
// map-based replay of its own history gives. Once every branch is
// released the store must be empty.
func FuzzChainStoreOps(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 1, 0, 4, 1, 2, 3, 4, 2, 1, 0, 1, 3, 5, 0, 0, 2, 1})
	f.Add([]byte{0, 2, 1, 0, 6, 3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3, 2, 3, 8, 4, 6, 2, 6, 4, 3, 3, 8, 3, 2, 7, 9, 5})
	f.Add([]byte{0, 0, 1, 0, 3, 0, 0, 0, 0, 1, 0, 3, 0, 0, 0, 0, 2, 0, 2, 0, 5, 3, 1, 4, 0, 6, 1, 5, 0, 7})
	f.Fuzz(chainStoreOps)
}

// chainStoreOps is FuzzChainStoreOps's body: it runs one decoded
// operation sequence and fails t on the first inconsistency.
func chainStoreOps(t *testing.T, data []byte) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := int(data[0])
		data = data[1:]
		return b
	}
	type branch struct {
		l      *Lineage
		oracle map[int64]int64
	}
	cs := NewChainStore()
	tier := NewTier(RemoteKind, 0)
	cs.MirrorTo(tier, nil)
	var live []*branch
	pick := func() int { return next() % len(live) }
	release := func(i int) {
		live[i].l.Release()
		live = append(live[:i], live[i+1:]...)
	}

	check := func(step int, op string) {
		t.Helper()
		expected := make(map[Addr]int)
		for _, br := range live {
			for _, seg := range br.l.Segments() {
				expected[seg.Addr]++
			}
		}
		for _, err := range cs.Audit(expected) {
			t.Fatalf("step %d (%s): %v", step, op, err)
		}
		if tier.SegmentCount() != cs.Entries() || tier.StoredBytes() != cs.StoredBytes() {
			t.Fatalf("step %d (%s): tier holds %d segments/%d bytes, store %d/%d",
				step, op, tier.SegmentCount(), tier.StoredBytes(), cs.Entries(), cs.StoredBytes())
		}
		for bi, br := range live {
			want := make([]Block, 0, len(br.oracle))
			for vba, tag := range br.oracle {
				want = append(want, Block{vba, tag})
			}
			sort.Slice(want, func(i, j int) bool { return want[i].VBA < want[j].VBA })
			if d := diffBlocks(br.l.Materialize(), want); d != "" {
				t.Fatalf("step %d (%s): branch %d replay vs oracle: %s", step, op, bi, d)
			}
			if br.l.Depth() > br.l.MaxDepth {
				t.Fatalf("step %d (%s): branch %d depth %d over bound %d", step, op, bi, br.l.Depth(), br.l.MaxDepth)
			}
		}
	}

	for step := 0; len(data) > 0 && step < 256; step++ {
		op := next() % 6
		if len(live) == 0 {
			op = 0
		}
		var name string
		switch op {
		case 0:
			name = "new"
			if len(live) < 16 {
				live = append(live, &branch{l: cs.NewLineage(1 + next()%4), oracle: make(map[int64]int64)})
			}
		case 1, 2:
			// Commit: ascending addresses with small gaps and few
			// distinct tags, so epochs overlap and often deduplicate.
			name = "commit"
			br := live[pick()]
			var blocks []Block
			vba := int64(next() % 4)
			for k := next() % 8; k > 0; k-- {
				tag := int64(next() % 4)
				blocks = append(blocks, Block{vba, tag})
				br.oracle[vba] = tag
				vba += int64(1 + next()%6)
			}
			br.l.Commit(blocks, next()%3)
		case 3:
			name = "fork"
			br := live[pick()]
			if len(live) < 16 {
				cp := make(map[int64]int64, len(br.oracle))
				for vba, tag := range br.oracle {
					cp[vba] = tag
				}
				live = append(live, &branch{l: br.l.Fork(), oracle: cp})
			}
		case 4:
			name = "drop"
			br := live[pick()]
			k := int64(2 + next()%4)
			r := int64(next()) % k
			isFree := func(vba int64) bool { return vba%k == r }
			br.l.Drop(isFree)
			for vba := range br.oracle {
				if isFree(vba) {
					delete(br.oracle, vba)
				}
			}
		case 5:
			// GC sweep: release every branch the mask selects (a
			// single release when the mask picks none).
			name = "release"
			mask := next()
			before := len(live)
			for i := len(live) - 1; i >= 0; i-- {
				if mask>>(i%8)&1 == 1 {
					release(i)
				}
			}
			if len(live) == before {
				release(mask % len(live))
			}
		}
		check(step, name)
	}

	for len(live) > 0 {
		release(len(live) - 1)
		check(-1, "final release")
	}
	if cs.Entries() != 0 || cs.StoredBytes() != 0 || tier.SegmentCount() != 0 {
		t.Fatalf("all branches released, store keeps %d entries (%d bytes), tier %d segments",
			cs.Entries(), cs.StoredBytes(), tier.SegmentCount())
	}
}
