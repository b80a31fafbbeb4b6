package storage

import (
	"fmt"

	"emucheck/internal/sim"
)

// BackendKind selects the physical tier committed checkpoint-chain
// segments live on.
type BackendKind int

// Storage tiers.
const (
	// MemKind is the in-process store: chain contents are metadata
	// only, and every transfer rides the shared control-LAN pipe
	// through the untiered swap pipeline (a cluster configured with it
	// installs no Tier).
	MemKind BackendKind = iota
	// DiskKind is the node-local snapshot disk (the paper's second
	// local disk, §6): committed segments land next to the node at
	// seek + bandwidth cost and restores never cross the control LAN —
	// until the disk's capacity budget is exhausted and segments spill
	// to the shared pool.
	DiskKind
	// RemoteKind is the shared pool store reached over the control
	// LAN: segment bytes ride the file server's fair-share pipe (the
	// existing xfer cost model), plus a per-request round trip.
	RemoteKind
)

// String names the kind as scenario files and reports spell it.
func (k BackendKind) String() string {
	switch k {
	case DiskKind:
		return "disk"
	case RemoteKind:
		return "remote"
	default:
		return "mem"
	}
}

// ParseBackendKind parses a scenario-file backend name. The empty
// string selects the legacy in-process store.
func ParseBackendKind(s string) (BackendKind, error) {
	switch s {
	case "", "mem":
		return MemKind, nil
	case "disk":
		return DiskKind, nil
	case "remote":
		return RemoteKind, nil
	}
	return MemKind, fmt.Errorf("storage: unknown backend %q (want mem, disk or remote)", s)
}

// Default cost parameters for the simulated tiers.
const (
	// DefaultSnapshotDiskBytes is the node-local snapshot disk budget
	// (the paper sizes it to hold trees with thousands of nodes; 32 GB
	// keeps several tenants' chains resident without being infinite).
	DefaultSnapshotDiskBytes = 32 << 30
	// DefaultDiskSeek is the per-segment positioning cost on the
	// snapshot disk.
	DefaultDiskSeek = 4 * sim.Millisecond
	// DefaultDiskRate is the snapshot disk's sequential bandwidth in
	// bytes/second.
	DefaultDiskRate = 70 << 20
	// DefaultRemoteRTT is the shared pool's per-request round trip.
	DefaultRemoteRTT = 2 * sim.Millisecond
)

// Tier is the physical home of committed checkpoint-chain segments.
// The ChainStore remains the authoritative metadata index (refcounts,
// content addresses); a Tier decides where the segment *bytes* live
// and what moving them costs on the tier's own medium. It only prices
// and accounts — scheduling the simulated time is the swap pipeline's
// job, and shared control-LAN bandwidth is always charged through the
// xfer server. The tiers differ only in their parameters: the snapshot
// disk has a capacity, a seek and a rate; the shared pool has a
// per-request round trip and no bound.
type Tier struct {
	// Kind names the tier.
	Kind BackendKind
	// Capacity is the tier's budget in bytes (0 = unbounded). A Put
	// past it spills the segment to the shared pool.
	Capacity int64
	// Seek is the per-segment positioning cost on the tier's medium.
	Seek sim.Time
	// Rate is the medium's sequential bandwidth in bytes/second; zero
	// means the bytes ride the shared control-LAN pipe and are charged
	// there.
	Rate int64
	// RTT is the per-request round trip to the tier.
	RTT sim.Time

	// SpillSegments counts segments refused for lack of room.
	SpillSegments int64
	// SpillBytes accumulates the refused segments' sizes.
	SpillBytes int64

	segs  map[Addr]int64
	bytes int64
}

// NewTier builds a tier of the given kind with the default costs.
// diskBytes sizes the snapshot disk (0 = DefaultSnapshotDiskBytes); the
// mem and remote tiers are unbounded. The mem tier is free: it is the
// in-process store, whose transfers the untiered pipeline prices.
func NewTier(kind BackendKind, diskBytes int64) *Tier {
	t := &Tier{Kind: kind, segs: make(map[Addr]int64)}
	switch kind {
	case DiskKind:
		if diskBytes <= 0 {
			diskBytes = DefaultSnapshotDiskBytes
		}
		t.Capacity, t.Seek, t.Rate = diskBytes, DefaultDiskSeek, DefaultDiskRate
	case RemoteKind:
		t.RTT = DefaultRemoteRTT
	}
	return t
}

// xferCost prices moving n bytes through a seek + rate medium; a zero
// rate charges the seek alone.
func xferCost(n int64, seek sim.Time, rate int64) sim.Time {
	if n <= 0 {
		return 0
	}
	if rate <= 0 {
		return seek
	}
	return seek + sim.Time(float64(n)/float64(rate)*float64(sim.Second))
}

// Cost prices writing or reading n bytes on the tier's own medium:
// seek + bandwidth on the snapshot disk, one round trip on the remote
// pool (whose bandwidth rides the shared pipe), nothing on mem.
func (t *Tier) Cost(n int64) sim.Time { return xferCost(n, t.Seek+t.RTT, t.Rate) }

// Put records segment a (n bytes) as stored on the tier. A false
// return means the tier is over its capacity budget: the segment
// spills to the shared pool instead and restores must stream it back
// over the control LAN. Re-putting a resident segment only charges the
// size difference.
func (t *Tier) Put(a Addr, n int64) bool {
	old, resident := t.segs[a]
	if t.Capacity > 0 && t.bytes-old+n > t.Capacity {
		t.SpillSegments++
		t.SpillBytes += n
		return false
	}
	if resident {
		t.bytes -= old
	}
	t.segs[a] = n
	t.bytes += n
	return true
}

// Fits reports whether n more bytes stay inside the capacity budget,
// without counting a spill — the upfront placement decision.
func (t *Tier) Fits(n int64) bool { return t.Capacity <= 0 || t.bytes+n <= t.Capacity }

// Has reports whether the tier holds segment a.
func (t *Tier) Has(a Addr) bool { _, ok := t.segs[a]; return ok }

// Delete forgets a segment once its last chain reference is gone,
// freeing its budget share.
func (t *Tier) Delete(a Addr) {
	if old, ok := t.segs[a]; ok {
		t.bytes -= old
		delete(t.segs, a)
	}
}

// StoredBytes reports the tier's resident segment footprint.
func (t *Tier) StoredBytes() int64 { return t.bytes }

// SegmentCount reports how many segments are resident.
func (t *Tier) SegmentCount() int { return len(t.segs) }
