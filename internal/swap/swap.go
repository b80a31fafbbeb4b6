// Package swap implements stateful swapping (paper §5, §7.2): swapping
// an experiment out of the testbed without losing its run-time state,
// and swapping it back in with the entire period of inactivity concealed
// from the experiment.
//
// Swap-out pipeline (per node, overlapped with execution):
//  1. Eager pre-copy: the current disk delta (after free-block
//     elimination) streams to the file server under the rate limiter
//     while the guest keeps running.
//  2. A coordinated transparent checkpoint freezes the experiment and
//     streams memory images over the control network (HoldResume).
//  3. Blocks re-dirtied during pre-copy are flushed.
//  4. Offline, the server merges the current delta into the aggregated
//     delta, reordering to restore locality (§5.3).
//
// Swap-in pipeline:
//  1. Fetch the golden image unless cached (Frisbee-style, ~60 s flat).
//  2. Download memory images; node setup/boot plumbing is a constant.
//  3. Disk state arrives either eagerly (full aggregated delta before
//     resume — swap-in time grows with accumulated history) or lazily
//     (demand-paged plus rate-limited background fill — constant
//     swap-in time); this is §7.2's 150 s-vs-35 s comparison.
//
// Incremental mode (Options.Incremental) moves only deltas: swap-out
// uploads the blocks and memory pages dirtied since the experiment's
// last resident checkpoint and commits them to a per-node lineage
// (storage.Lineage); swap-in reconstructs state by replaying base +
// delta chain, with chains pruned/merged past a depth bound so replay
// cost stays flat. Per-node uploads pipeline through bandwidth-shared
// parallel streams (xfer.Server.StreamUpload) instead of serialized
// full copies, so preemption cost is proportional to dirtied state.
//
// Chain state lives on the Manager's storage.Tier: nil keeps it on the
// file server (the untiered pipeline), the snapshot-disk tier next to
// the node, the remote tier on the shared pool. Each swap stage makes
// its tier decision in one place: putDelta for pre-copy and the
// residual flush, placeEpoch for a commit, planChain for a restore.
// Three splits remain because they are behaviour, not duplication:
//   - Full-copy mode keeps FIFO transfers (xfer.Copier, UploadTagged,
//     DownloadTagged) while incremental mode uses fair-share streams:
//     §7.2's 150 s-vs-35 s comparison is measured on the FIFO baseline.
//   - An untiered restore keeps the lazy mirror (resume first,
//     demand-page the disk state), while a tiered one prefetches the
//     pool misses and waits for them: folding the untiered case into
//     the tiered path would change every untiered resume time.
//   - Options.PreCopy stays although only tests turn it off: the
//     no-pre-copy swap-out is the reference that shows pre-copy
//     shrinking the frozen transfer.
package swap

import (
	"fmt"

	"emucheck/internal/core"
	"emucheck/internal/metrics"
	"emucheck/internal/node"
	"emucheck/internal/sim"
	"emucheck/internal/storage"
	"emucheck/internal/xen"
	"emucheck/internal/xfer"
)

// rawRegion is a byte-addressed window onto a disk region, used to land
// delta-image bytes in the COW log area without re-entering the COW
// translation layer.
type rawRegion struct {
	d    *node.Disk
	base int64
}

func (r rawRegion) Read(off, n int64, done func()) {
	r.d.Submit(&node.DiskRequest{Op: node.Read, LBA: r.base + off, Bytes: n, Done: done})
}

func (r rawRegion) Write(off, n int64, done func()) {
	r.d.Submit(&node.DiskRequest{Op: node.Write, LBA: r.base + off, Bytes: n, Done: done})
}

// GoldenFetchTime models Frisbee multicast disk imaging of the base
// image onto a node (§7.2: "an additional 60 seconds to download it").
const GoldenFetchTime = 60 * sim.Second

// NodeSetupTime is the fixed swap-in plumbing: allocation, VLANs, VM
// creation (§7.2: the initial swap-in took eight seconds).
const NodeSetupTime = 8 * sim.Second

// Node is one swappable experiment node.
type Node struct {
	Name string
	HV   *xen.Hypervisor
	Vol  *storage.Volume
	// IsFree is the free-block plugin hook (nil disables elimination).
	IsFree func(vba int64) bool

	// Server-side state accumulated across swap cycles.
	AggBytesOnServer int64
	MemImageBytes    int64
	GoldenCached     bool

	// Resident tracks which content-addressed chain segments are
	// already staged on the node's disk (by the branch fan-out's
	// multicast, or left there by the node's own earlier cycles — the
	// delta-image analogue of GoldenCached). A clone-aware restore
	// transfers only the segments missing from this set.
	Resident map[storage.Addr]bool

	lazy *xfer.LazyMirror
}

// MarkResident records the lineage's current chain segments as staged
// on the node's disk.
func (n *Node) MarkResident(lin *storage.Lineage) {
	if n.Resident == nil {
		n.Resident = make(map[storage.Addr]bool)
	}
	for _, seg := range lin.Segments() {
		n.Resident[seg.Addr] = true
	}
}

// OutReport describes one swap-out.
type OutReport struct {
	Started  sim.Time
	Finished sim.Time
	// PreCopyBytes streamed while the experiment was still running.
	PreCopyBytes int64
	// ResidualBytes were re-dirtied during pre-copy and flushed frozen.
	ResidualBytes int64
	// MemoryBytes is the memory image moved to the server: the full
	// resident set, or just the dirty delta in incremental mode.
	MemoryBytes int64
	MergedBytes int64
	Checkpoint  *core.Result
	// Incremental marks a dirty-delta swap-out committed to the lineage.
	Incremental bool
	// ChainDepth is the lineage chain length after this commit.
	ChainDepth int
}

// Duration reports the wall time of the swap-out.
func (r *OutReport) Duration() sim.Time { return r.Finished - r.Started }

// InReport describes one swap-in.
type InReport struct {
	Started  sim.Time
	Finished sim.Time // experiment running again
	Lazy     bool
	// GoldenFetched marks a cold golden-image download.
	GoldenFetched bool
	// DeltaBytes is the disk state staged for the node: the merged
	// aggregated delta, or the base + delta chain replay in incremental
	// mode.
	DeltaBytes  int64
	MemoryBytes int64
	// BackgroundDone is when lazy background fill completed (lazy only).
	BackgroundDone sim.Time
	// Incremental marks a lineage-replay swap-in.
	Incremental bool
	// ChainDepth is the number of chain epochs replayed over the base.
	ChainDepth int
	// CachedBytes is the replay state served off node-local media — the
	// delta cache plus the snapshot-disk tier — without re-streaming
	// over the control LAN (tiered storage only).
	CachedBytes int64
	// RemoteBytes is the replay state that had to stream from the
	// shared pool (tiered storage only).
	RemoteBytes int64
}

// Duration reports time until the experiment was running again.
func (r *InReport) Duration() sim.Time { return r.Finished - r.Started }

// Options tunes a swap cycle.
type Options struct {
	// PreCopy enables eager pre-copy during swap-out (default on via
	// DefaultOptions).
	PreCopy bool
	// Lazy enables lazy copy-in at swap-in.
	Lazy bool
	// Incremental enables the dirty-delta pipeline: swap-out moves only
	// state dirtied since the last resident checkpoint (memory via the
	// hypervisor's incremental save, disk via the current-delta epoch)
	// and commits it to the per-node lineage; swap-in replays base +
	// delta chain. Uploads go through bandwidth-shared parallel streams.
	Incremental bool
	// CloneAware (implies Incremental) makes restores consult the
	// node's resident-segment set: swap-in downloads only the
	// content-addressed chain segments not already staged on the node
	// (by a branch fan-out's multicast or the node's own prior cycles),
	// and swap cycles keep the set current. This is the branch-tenant
	// restore path; plain tenants keep the unconditional replay.
	CloneAware bool
}

// DefaultOptions enables pre-copy, lazy copy-in, and the paper's
// rate-limited background transfer — the full-copy baseline: the whole
// resident memory image moves on every swap-out and the whole
// aggregated delta on every swap-in.
func DefaultOptions() Options {
	return Options{PreCopy: true, Lazy: true}
}

// rateLimit caps background transfer bytes/sec — the paper's
// rate-limited mirror synchronization, and xfer.NewCopier's default.
const rateLimit = 10 << 20

// IncrementalOptions is DefaultOptions plus the dirty-delta pipeline.
func IncrementalOptions() Options {
	o := DefaultOptions()
	o.Incremental = true
	return o
}

// BranchOptions is IncrementalOptions plus clone-aware restore — the
// transfer mode of branch tenants, whose chains share a checkpoint
// prefix with their siblings.
func BranchOptions() Options {
	o := IncrementalOptions()
	o.CloneAware = true
	return o
}

// Manager orchestrates swap cycles for one experiment.
type Manager struct {
	S      *sim.Simulator
	Server *xfer.Server
	Coord  *core.Coordinator
	Nodes  []*Node

	// Tag attributes this experiment's control-LAN bytes on the shared
	// file server, so cross-experiment contention is accountable.
	Tag string

	// ServerMergeRate models the offline server-side delta merge.
	ServerMergeRate int64

	// MaxChainDepth bounds each node's checkpoint lineage; incremental
	// commits past it merge the oldest epochs into the base
	// (0 = storage.DefaultMaxDepth).
	MaxChainDepth int

	// Chains, when set, is the facility-wide refcounted chain store new
	// lineages are created in, so branches forked from this experiment's
	// checkpoints share base and common deltas by reference (and
	// content-identical commits across tenants deduplicate). Unset, each
	// lineage gets a private store.
	Chains *storage.ChainStore

	// Stats, when set, accumulates delta/full byte counts per transfer
	// class ("out.mem_bytes", "out.delta_bytes", "in.mem_bytes",
	// "in.disk_bytes", "merged_bytes", "out.epoch_bytes") for reports
	// and assertions. Tiered storage adds chain-placement classes:
	// "storage.remote_bytes" (chain state crossing the control LAN to
	// or from the shared pool), "storage.local_bytes" (chain state
	// served or stored on node-local media), "storage.cache_hit_bytes"
	// (restores served off the delta cache), and "storage.spill_bytes"
	// (snapshot-disk overflow pushed to the pool).
	Stats *metrics.Counters

	// Tier, when set, is the physical tier committed checkpoint-chain
	// segments live on (storage.DiskKind: the node-local snapshot disk;
	// storage.RemoteKind: the shared pool with per-request round trips
	// and batched puts). Nil keeps the untiered pipeline. Set it before
	// the first swap cycle.
	Tier *storage.Tier

	// Cache is the node-local delta cache fronting remotely-homed
	// chain segments: restores consult it first and only the misses
	// stream from the pool; commits and prefetches fill it. Nil
	// disables caching. Only meaningful with a Tier.
	Cache *storage.DeltaCache

	// SaveDeadline bounds the save phase of this experiment's swap-out
	// checkpoints and committed epochs: a member that cannot barrier in
	// time (crashed, or its notification was lost) aborts the epoch
	// instead of hanging it. Zero disables straggler detection.
	SaveDeadline sim.Time

	// OnCommit, if set, observes every completed epoch commit (swap-out
	// or CommitEpoch) once the state is durable on the file server —
	// the hook recovery benchmarks use to snapshot workload progress at
	// the restore point.
	OnCommit func()

	swappedOut bool

	// Cycle counts completed swap-outs.
	Cycle int

	// lastCommitAt is when the experiment's state last became durably
	// recoverable on the file server (a completed swap-out or epoch
	// commit); zero means never.
	lastCommitAt sim.Time

	// epochLoop drives the periodic committed-epoch pipeline.
	epochLoop *core.PeriodicCheckpointer

	// commitsInFlight counts CommitEpoch calls whose uploads have not
	// landed; a swap-out's freeze waits for them so a stale captured
	// epoch can never append after the park's newer one.
	commitsInFlight int

	// lineages holds each node's server-side checkpoint chain.
	lineages map[string]*storage.Lineage
	// lastSwapEpoch is the coordinator epoch of the last swap-out
	// checkpoint: an incremental memory save is only sound if no other
	// checkpoint consumed the dirty log since (otherwise the delta on
	// the server would miss pages saved to the scratch disk instead).
	lastSwapEpoch int
}

// NewManager builds a swap manager over the coordinator's members.
func NewManager(s *sim.Simulator, server *xfer.Server, coord *core.Coordinator, nodes []*Node) *Manager {
	return &Manager{
		S: s, Server: server, Coord: coord, Nodes: nodes,
		ServerMergeRate: 45 << 20,
		lineages:        make(map[string]*storage.Lineage),
	}
}

// Lineage returns (creating on first use) the named node's checkpoint
// chain. A stand-alone manager (no cluster chain store) mirrors its
// private store straight onto the tier, so prune folds — which re-key
// the base — and GC reach the tier and the cache without cluster
// wiring.
func (m *Manager) Lineage(name string) *storage.Lineage {
	l, ok := m.lineages[name]
	if !ok {
		if m.Chains != nil {
			l = m.Chains.NewLineage(m.MaxChainDepth)
		} else {
			cs := storage.NewChainStore()
			cs.MirrorTo(m.Tier, m.Cache)
			l = cs.NewLineage(m.MaxChainDepth)
		}
		m.lineages[name] = l
	}
	return l
}

// AdoptLineage installs a pre-built chain as the named node's lineage —
// the branch fork path: the hosting cluster forks the parent node's
// lineage (sharing base + common deltas by reference) and hands the
// fork to the branch's manager, so the branch's own swap cycles append
// branch-private epochs.
func (m *Manager) AdoptLineage(name string, l *storage.Lineage) {
	m.lineages[name] = l
}

// Lineages returns the manager's live per-node chain index, keyed by
// node name; nodes that never committed are absent. Map iteration
// order is undefined — callers must only aggregate over it (sums,
// lookups), never derive ordered output, and must not mutate it.
func (m *Manager) Lineages() map[string]*storage.Lineage { return m.lineages }

// ReleaseLineages prunes every node's chain: refs drop, and deltas no
// branch can reach any more are garbage-collected by the store.
func (m *Manager) ReleaseLineages() {
	for _, n := range m.Nodes {
		if l, ok := m.lineages[n.Name]; ok {
			l.Release()
		}
	}
}

// stat accumulates into the optional counter set.
func (m *Manager) stat(name string, n int64) {
	if m.Stats != nil {
		m.Stats.Add(name, n)
	}
}

// localTier reports whether committed chain state lands on the
// node-local snapshot disk (no control-LAN crossing).
func (m *Manager) localTier() bool {
	return m.Tier != nil && m.Tier.Kind == storage.DiskKind
}

// remoteTier reports whether committed chain state is homed on the
// shared pool, behind its per-request round trip.
func (m *Manager) remoteTier() bool {
	return m.Tier != nil && m.Tier.Kind == storage.RemoteKind
}

// putDelta moves a delta image to the chain's home and calls done: the
// node-local snapshot disk takes it at the disk's own cost, off the
// control LAN; otherwise it streams to the file server (the shared
// pool, or the untiered store) through the fair-share pipe.
func (m *Manager) putDelta(bytes int64, done func()) {
	if m.localTier() {
		m.stat("storage.local_bytes", bytes)
		m.S.DoAfter(m.Tier.Cost(bytes), "swap.local-put", done)
		return
	}
	if m.Tier != nil {
		m.stat("storage.remote_bytes", bytes)
	}
	m.Server.StreamUpload(m.Tag, bytes, done)
}

// chainPlan is one node's tiered restore in flight: the pool misses
// being prefetched and the node-local media time staging pays on top.
type chainPlan struct {
	// cost is the node-local medium time (cache reads, disk reads,
	// pool round trips) the staging pays on top of the streaming.
	cost   sim.Time
	misses []storage.Segment

	fetched bool
	waiters []func()
}

// planChain partitions one lineage's replay chain across the storage
// tiers for a restore — nil on the untiered pipeline. Segments already
// resident on the target node (resident, when non-nil, is the
// clone-aware filter) are skipped, cache hits and snapshot-disk
// segments serve locally, and only the remainder streams from the
// shared pool. It charges the cache's hit/miss ledger, records the
// split in rep and the storage.* stats, and starts prefetching the
// pool misses.
func (m *Manager) planChain(lin *storage.Lineage, resident map[storage.Addr]bool, rep *InReport) *chainPlan {
	if m.Tier == nil {
		return nil
	}
	p := &chainPlan{}
	var cached, local, remote int64
	for _, seg := range lin.Segments() {
		if seg.Bytes <= 0 || resident[seg.Addr] {
			continue
		}
		if m.Cache != nil {
			if _, ok := m.Cache.Get(seg.Addr); ok {
				cached += seg.Bytes
				p.cost += m.Cache.ReadCost(seg.Bytes)
				continue
			}
			m.Cache.MissBytes(seg.Bytes)
		}
		if m.localTier() && m.Tier.Has(seg.Addr) {
			local += seg.Bytes
			p.cost += m.Tier.Cost(seg.Bytes)
			continue
		}
		// Remotely homed: the pool streams it over the shared pipe
		// (spilled snapshot-disk overflow included), plus the pool's
		// per-request round trip on the remote tier.
		remote += seg.Bytes
		if m.remoteTier() {
			p.cost += m.Tier.Cost(seg.Bytes)
		}
		p.misses = append(p.misses, seg)
	}
	rep.CachedBytes = cached + local
	rep.RemoteBytes = remote
	m.stat("storage.remote_bytes", remote)
	m.stat("storage.cache_hit_bytes", cached)
	m.stat("storage.local_bytes", local)
	p.prefetch(m)
	return p
}

// prefetch starts streaming the plan's remote misses from the pool as
// one batched get — overlapped with golden fetch, node setup and the
// memory download — and fills the delta cache as they land. Staging
// legs wait on it.
func (p *chainPlan) prefetch(m *Manager) {
	sizes := make([]int64, len(p.misses))
	for i, seg := range p.misses {
		sizes[i] = seg.Bytes
	}
	m.Server.StreamDownloadBatch(m.Tag, sizes, func(int64) {
		if m.Cache != nil {
			for _, seg := range p.misses {
				m.Cache.Put(seg.Addr, seg.Bytes)
			}
		}
		p.fetched = true
		ws := p.waiters
		p.waiters = nil
		for _, w := range ws {
			w()
		}
	})
}

// stage runs fn once the prefetch has drained and the node-local
// media time (cache and snapshot-disk reads, pool round trips) has
// passed.
func (p *chainPlan) stage(m *Manager, fn func()) {
	local := func() { m.S.DoAfter(p.cost, "swap.stage-local", fn) }
	if p.fetched {
		local()
		return
	}
	p.waiters = append(p.waiters, local)
}

// placeEpoch records a lineage's newest committed epoch on the
// physical tier and fills the delta cache for remotely-homed content.
// It returns the bytes that must spill to the shared pool because the
// snapshot disk is over its capacity budget (none when untiered).
func (m *Manager) placeEpoch(lin *storage.Lineage) int64 {
	if m.Tier == nil {
		return 0
	}
	segs := lin.Segments()
	seg := segs[len(segs)-1]
	if seg.Bytes <= 0 {
		return 0
	}
	// A mirrored ChainStore already put the commit on the tier; the
	// direct Put covers a tier the store does not mirror onto.
	onTier := m.Tier.Has(seg.Addr) || m.Tier.Put(seg.Addr, seg.Bytes)
	if m.Cache != nil && (!onTier || m.remoteTier()) {
		// Remotely homed (pool tier, or snapshot-disk overflow): the
		// freshest epoch is the hottest restore content — cache it.
		m.Cache.Put(seg.Addr, seg.Bytes)
	}
	if onTier {
		return 0
	}
	return seg.Bytes
}

// SwappedOut reports whether the experiment is currently swapped out.
func (m *Manager) SwappedOut() bool { return m.swappedOut }

// anyCrashed reports whether any node has fail-stopped — commit and
// swap-out completions consult it so state destroyed by a crash is
// never marked durable.
func (m *Manager) anyCrashed() bool {
	for _, n := range m.Nodes {
		if n.HV.Crashed() {
			return true
		}
	}
	return false
}

// LastCommitAt reports when the experiment's state last became durably
// recoverable on the file server (zero: never). The gap between a crash
// and this instant is the work a recovery loses.
func (m *Manager) LastCommitAt() sim.Time { return m.lastCommitAt }

// SwapOut swaps the experiment out; done receives one report per node,
// or the error that aborted the swap-out (an epoch failure mid-freeze:
// the experiment was thawed and keeps running; nothing was released).
func (m *Manager) SwapOut(o Options, done func([]*OutReport, error)) error {
	if m.swappedOut {
		return fmt.Errorf("swap: already swapped out")
	}
	start := m.S.Now()
	reports := make([]*OutReport, len(m.Nodes))
	cuts := make([]int, len(m.Nodes))
	for i, n := range m.Nodes {
		reports[i] = &OutReport{Started: start, Incremental: o.Incremental}
		cuts[i] = n.Vol.Cur.Slots()
	}
	// An incremental memory save needs a base on the server (one prior
	// swap-out) and an unbroken dirty log: an intermediate checkpoint to
	// the scratch disk consumed pages the server never saw, so fall back
	// to a full save when the coordinator epoch moved underneath us.
	incrMem := o.Incremental && m.Cycle > 0 && m.Coord.Epoch() == m.lastSwapEpoch

	var ckpt func()
	ckpt = func() {
		if m.Coord.Held() {
			// A HoldResume checkpoint parked the experiment and only an
			// explicit ResumeHeld will clear it — waiting would spin
			// forever.
			done(nil, fmt.Errorf("swap: cannot swap out: a held checkpoint awaits ResumeHeld"))
			return
		}
		if m.Coord.Busy() || m.commitsInFlight > 0 {
			// A periodic (or scripted) checkpoint — or an epoch commit
			// still uploading — is mid-flight; the swap-out's freeze
			// queues behind it rather than failing: the preempting
			// scheduler must not crash a checkpointing tenant, and the
			// park's lineage epoch must append after (never interleave
			// with) an in-flight commit's.
			m.S.DoAfter(500*sim.Millisecond, "swap.ckpt-wait", ckpt)
			return
		}
		err := m.Coord.Checkpoint(core.Options{
			Target:       xen.ToControlNet,
			HoldResume:   true,
			Incremental:  incrMem,
			SaveDeadline: m.SaveDeadline,
		}, func(res *core.Result, cerr error) {
			if cerr != nil {
				// The freeze epoch aborted (a member failed or straggled):
				// the coordinator thawed whatever froze, so the experiment
				// keeps running and the park reports failure upward.
				done(nil, cerr)
				return
			}
			m.afterFreeze(o, res, reports, cuts, done)
		})
		if err != nil {
			done(nil, fmt.Errorf("swap: %v", err))
		}
	}

	if !o.PreCopy {
		ckpt()
		return nil
	}
	// Eager pre-copy of every node's live current delta, in parallel.
	// The full-copy path serializes the bytes FIFO through the shared
	// server pipe; incremental mode pipelines them as bandwidth-shared
	// streams so one node's delta never queues behind another's.
	remaining := len(m.Nodes)
	for i, n := range m.Nodes {
		i, n := i, n
		bytes := n.Vol.CurrentDeltaBytes(n.IsFree)
		finish := func(moved int64) {
			reports[i].PreCopyBytes = moved
			remaining--
			if remaining == 0 {
				ckpt()
			}
		}
		if o.Incremental {
			m.streamOut(n.Vol.Disk, bytes, finish)
			continue
		}
		c := xfer.NewCopier(m.S, n.Vol.Disk, m.Server)
		c.Tag = m.Tag
		c.CopyOut(storage.CurBase, bytes, finish)
	}
	return nil
}

// streamOut reads a delta image off the node's disk and puts it on the
// chain's home concurrently; done fires with the bytes moved when both
// the spindle and the put are finished.
// The disk side reads in paced chunks — pre-copy runs while the guest
// is live, and a monolithic read would head-of-line block every
// foreground I/O behind the whole delta; the network side is one
// stream, since fair sharing is the pipe's job.
func (m *Manager) streamOut(disk *node.Disk, bytes int64, done func(moved int64)) {
	if bytes <= 0 {
		m.S.DoAfter(0, "swap.stream0", func() { done(0) })
		return
	}
	remaining := 2
	fin := func() {
		remaining--
		if remaining == 0 {
			done(bytes)
		}
	}
	const chunk = 1 << 20
	const pace = chunk * sim.Second / rateLimit
	var read func(cur int64)
	read = func(cur int64) {
		n := int64(chunk)
		if bytes-cur < n {
			n = bytes - cur
		}
		floor := m.S.Now() + pace
		disk.Submit(&node.DiskRequest{Op: node.Read, LBA: storage.CurBase + cur, Bytes: n, Done: func() {
			if cur+n >= bytes {
				fin()
				return
			}
			m.S.DoAfter(floor-m.S.Now(), "swap.stream-pace", func() { read(cur + n) })
		}})
	}
	read(0)
	m.putDelta(bytes, fin)
}

// afterFreeze flushes residual deltas and memory accounting, commits
// the epoch to each node's lineage (incremental mode), then releases
// the hardware.
func (m *Manager) afterFreeze(o Options, res *core.Result, reports []*OutReport, cuts []int, done func([]*OutReport, error)) {
	m.lastSwapEpoch = m.Coord.Epoch()
	remaining := len(m.Nodes)
	for i, n := range m.Nodes {
		i, n := i, n
		rep := reports[i]
		rep.Checkpoint = res
		for _, img := range res.Images {
			if img.Node == n.Name {
				rep.MemoryBytes = img.MemoryBytes + img.DeviceBytes
				if o.Incremental {
					// The server applies the delta to its base offline;
					// swap-in must still restore the full resident image.
					n.MemImageBytes = n.HV.K.MemoryImageBytes() + img.DeviceBytes
				} else {
					n.MemImageBytes = img.MemoryBytes + img.DeviceBytes
				}
			}
		}
		m.stat("out.mem_bytes", rep.MemoryBytes)
		// The hypervisor streamed the image over the control net itself
		// (its timing is inside the checkpoint); the server still logs
		// the bytes so per-experiment totals are truthful.
		m.Server.AccountUpload(m.Tag, rep.MemoryBytes)
		// Blocks appended to the redo log after the pre-copy cut are
		// residual: blocks written (or re-written) during pre-copy.
		residualSlots := n.Vol.Cur.Slots() - cuts[i]
		if !o.PreCopy {
			residualSlots = n.Vol.Cur.Slots()
			// Without pre-copy the whole live delta moves while frozen.
			rep.ResidualBytes = n.Vol.CurrentDeltaBytes(n.IsFree)
		} else {
			rep.ResidualBytes = int64(residualSlots) * storage.BlockSize
		}
		m.stat("out.delta_bytes", rep.PreCopyBytes+rep.ResidualBytes)
		afterFlush := func() {
			// The node's part of the swap-out ends here; the delta merge
			// is offline server-side post-processing (§5.3) and does not
			// extend the user-visible swap-out.
			rep.Finished = m.S.Now()
			var serverWork, spillBytes int64
			if o.Incremental {
				// Commit the dirty epoch to the lineage before the local
				// merge folds it into the aggregated delta; server-side
				// work is whatever pruning folded into the base. Free-block
				// elimination applies retroactively to the whole chain, so
				// replay never resurrects blocks the filesystem has freed
				// since they were committed.
				lin := m.Lineage(n.Name)
				pruned := lin.MergedBytes
				lin.Commit(n.Vol.EpochBlocks(n.IsFree),
					int(rep.MemoryBytes/int64(n.HV.P.PageSize)))
				lin.Drop(n.IsFree)
				rep.ChainDepth = lin.Depth()
				serverWork = lin.MergedBytes - pruned
				// Record the epoch on its tier; snapshot-disk overflow
				// spills to the pool during the offline window below.
				if spillBytes = m.placeEpoch(lin); spillBytes > 0 {
					m.stat("storage.spill_bytes", spillBytes)
					m.stat("storage.remote_bytes", spillBytes)
				}
				if o.CloneAware {
					// The node's disk holds exactly the state the chain now
					// replays to; record it so the next restore here (or a
					// co-staged sibling's) skips the resident segments.
					n.MarkResident(lin)
				}
			}
			n.HV.K.Dirty.CutEpoch()
			merged := n.Vol.Merge(true, n.IsFree)
			n.AggBytesOnServer = merged
			rep.MergedBytes = merged
			if !o.Incremental {
				serverWork = merged
			}
			m.stat("merged_bytes", serverWork)
			mergeDur := sim.Time(float64(serverWork) / float64(m.ServerMergeRate) * float64(sim.Second))
			// The offline window covers the server-side merge and, when
			// the snapshot disk overflowed, pushing the spilled epoch to
			// the shared pool; both must drain before the park counts.
			legs := 1
			if spillBytes > 0 {
				legs = 2
			}
			nodeDone := func() {
				legs--
				if legs > 0 {
					return
				}
				remaining--
				if remaining == 0 {
					if m.anyCrashed() {
						// The machines died while the residual flush or
						// merge was draining: the swap-out never
						// completed and its epoch is not a restore
						// point. The crash path owns the cleanup.
						return
					}
					m.swappedOut = true
					m.Cycle++
					// Either mode leaves a complete restore point on the
					// server: the lineage chain (incremental) or the full
					// image + aggregated delta (full copy).
					m.lastCommitAt = m.S.Now()
					if m.OnCommit != nil {
						m.OnCommit()
					}
					done(reports, nil)
				}
			}
			m.S.DoAfter(mergeDur, "swap.merge", nodeDone)
			if spillBytes > 0 {
				m.Server.StreamUpload(m.Tag, spillBytes, nodeDone)
			}
		}
		if o.Incremental {
			m.putDelta(rep.ResidualBytes, afterFlush)
		} else {
			m.Server.UploadTagged(m.Tag, rep.ResidualBytes, afterFlush)
		}
	}
}

// SwapIn restores the experiment; done receives one report per node
// once every guest is running (lazy background fill may continue), or
// the error that stopped the restore.
func (m *Manager) SwapIn(o Options, done func([]*InReport, error)) error {
	if !m.swappedOut {
		return fmt.Errorf("swap: not swapped out")
	}
	start := m.S.Now()
	reports := make([]*InReport, len(m.Nodes))
	remaining := len(m.Nodes)
	finishNode := func() {
		remaining--
		if remaining == 0 {
			// All state staged: resume the experiment together.
			err := m.Coord.ResumeHeld(func(_ *core.Result, rerr error) {
				if rerr != nil {
					done(nil, rerr)
					return
				}
				now := m.S.Now()
				for _, r := range reports {
					r.Finished = now
				}
				m.swappedOut = false
				done(reports, nil)
			})
			if err != nil {
				done(nil, fmt.Errorf("swap: %v", err))
			}
		}
	}
	for i, n := range m.Nodes {
		rep := &InReport{Started: start, Lazy: o.Lazy, Incremental: o.Incremental}
		reports[i] = rep
		// The disk state to stage: the merged aggregated delta, or the
		// lineage's base + delta chain replay in incremental mode. A
		// clone-aware restore narrows the replay further, to the chain
		// segments not already resident on the node.
		diskBytes := n.AggBytesOnServer
		var plan *chainPlan
		if o.Incremental {
			lin := m.Lineage(n.Name)
			var resident map[storage.Addr]bool
			if o.CloneAware {
				resident = n.Resident
			}
			diskBytes = lin.MissingBytes(resident)
			rep.ChainDepth = lin.Depth()
			plan = m.planChain(lin, resident, rep)
		}
		m.provision(n, rep, func() {
			// Memory image download, then disk state.
			memDone := func() {
				rep.MemoryBytes = n.MemImageBytes
				rep.DeltaBytes = diskBytes
				m.stat("in.mem_bytes", rep.MemoryBytes)
				m.stat("in.disk_bytes", diskBytes)
				if o.CloneAware {
					// Once staging is under way the chain's segments are
					// bound for the node's disk; record them so the next
					// cycle here moves only fresh divergence.
					n.MarkResident(m.Lineage(n.Name))
				}
				if plan != nil {
					// Tiered staging: the pool misses were prefetched in
					// parallel with setup. No lazy mirror — prefetch
					// overlap is what keeps the restore off the critical
					// path.
					plan.stage(m, finishNode)
					return
				}
				if !o.Lazy {
					// Eager: the whole disk state lands before the
					// node may resume.
					c := xfer.NewCopier(m.S, n.Vol.Disk, m.Server)
					c.Tag = m.Tag
					c.CopyIn(storage.AggBase, diskBytes, func(int64) {
						finishNode()
					})
					return
				}
				// Lazy: resume immediately; the staged disk image is
				// demand-paged and back-filled into the COW log region
				// (raw addressing — the delta is an image file, not
				// guest-visible block space).
				lm := xfer.NewLazyMirror(m.S, rawRegion{d: n.Vol.Disk, base: storage.AggBase},
					m.Server, n.Vol.Disk, diskBytes)
				lm.SetTag(m.Tag)
				n.lazy = lm
				lm.StartBackground(func() { rep.BackgroundDone = m.S.Now() })
				finishNode()
			}
			if o.Incremental {
				// Memory images pipeline across nodes on the shared
				// pipe instead of queueing behind each other.
				m.Server.StreamDownload(m.Tag, n.MemImageBytes, memDone)
			} else {
				m.Server.DownloadTagged(m.Tag, n.MemImageBytes, memDone)
			}
		})
	}
	return nil
}

// provision readies a node's hardware for a restore: a Frisbee fetch
// of the golden image unless the node has it cached, then the fixed
// node setup. fn runs once both are done.
func (m *Manager) provision(n *Node, rep *InReport, fn func()) {
	setup := func() { m.S.DoAfter(NodeSetupTime, "swap.setup", fn) }
	if n.GoldenCached {
		setup()
		return
	}
	rep.GoldenFetched = true
	m.S.DoAfter(GoldenFetchTime, "swap.frisbee", func() {
		n.GoldenCached = true
		setup()
	})
}

// CommitEpoch durably commits the experiment's live state to its
// per-node lineages without parking it: each node's disk epoch (the
// blocks dirtied since the last commit) and dirty memory pages stream
// to the file server as bandwidth-shared uploads and append to the
// chain. This is the durable half of an incremental swap-out — the
// periodic epoch pipeline uses it to keep crash recovery's restore
// point fresh. done, if non-nil, receives the bytes moved once every
// node's commit is on the server.
func (m *Manager) CommitEpoch(done func(moved int64)) {
	if m.swappedOut {
		// Parked: the guests are frozen off-hardware and the park's own
		// epoch already committed everything.
		return
	}
	m.commitsInFlight++
	// Durability ordering: the local epoch closes now (dirty logs cut,
	// volume deltas merged), but the server-side lineages only append —
	// and the commit only counts as a restore point — once every node's
	// upload has landed, all-or-nothing. A crash mid-upload therefore
	// discards the whole epoch: no lineage claims state the server
	// never fully received, and lastCommitAt never moves past the
	// crash.
	type pendingCommit struct {
		n        *Node
		lin      *storage.Lineage
		blocks   []storage.Block
		memPages int
		// remote marks an epoch whose bytes already crossed to the pool
		// in the transfer stage (remote tier, or a snapshot disk known
		// full upfront) — its placement must not bill a second spill.
		remote bool
	}
	var pend []pendingCommit
	remaining := len(m.Nodes)
	var total int64
	fin := func() {
		remaining--
		if remaining > 0 {
			return
		}
		m.commitsInFlight--
		if m.anyCrashed() {
			// The machines died while the commit was in flight: the
			// epoch never became durable. Recovery restores the
			// previous one.
			return
		}
		var spill int64
		for _, p := range pend {
			p.lin.Commit(p.blocks, p.memPages)
			p.lin.Drop(p.n.IsFree)
			p.n.MarkResident(p.lin)
			if sp := m.placeEpoch(p.lin); !p.remote {
				spill += sp
			}
		}
		complete := func() {
			m.lastCommitAt = m.S.Now()
			if m.OnCommit != nil {
				m.OnCommit()
			}
			if done != nil {
				done(total)
			}
		}
		if spill > 0 {
			// Snapshot-disk overflow: the epoch only counts as a restore
			// point once its spilled bytes are safe on the pool.
			m.stat("storage.spill_bytes", spill)
			m.stat("storage.remote_bytes", spill)
			m.Server.StreamUpload(m.Tag, spill, complete)
			return
		}
		complete()
	}
	for _, n := range m.Nodes {
		lin := m.Lineage(n.Name)
		blocks := n.Vol.EpochBlocks(n.IsFree)
		memPages := n.HV.K.Dirty.EpochDirty()
		if len(blocks) == 0 && memPages == 0 && lin.Epochs() > 0 {
			// Nothing dirtied since the last commit; the chain already
			// replays to the current state.
			m.S.DoAfter(0, "swap.commit0", fin)
			continue
		}
		n.HV.K.Dirty.CutEpoch()
		n.Vol.Merge(true, n.IsFree)
		pc := pendingCommit{n: n, lin: lin, blocks: blocks, memPages: memPages}
		diskB := int64(len(blocks)) * storage.BlockSize
		memB := int64(memPages) * int64(n.HV.P.PageSize)
		bytes := diskB + memB
		total += bytes
		m.stat("out.epoch_bytes", bytes)
		switch {
		case bytes <= 0:
			m.S.DoAfter(0, "swap.commit0", fin)
		case m.Tier == nil:
			m.Server.StreamUpload(m.Tag, bytes, fin)
		case m.localTier() && m.Tier.Fits(diskB):
			// The disk epoch lands on the node-local snapshot disk; only
			// the memory delta crosses to the pool (memory images are
			// always server-homed, so a restore can rebuild the resident
			// image without the dead node's media).
			legs := 2
			leg := func() {
				legs--
				if legs == 0 {
					fin()
				}
			}
			m.putDelta(diskB, leg)
			if memB > 0 {
				m.Server.StreamUpload(m.Tag, memB, leg)
			} else {
				m.S.DoAfter(0, "swap.commit0", leg)
			}
		case m.localTier():
			// The snapshot disk is known full upfront: the epoch is
			// pool-bound from the start — one batched upload charged as
			// spill, no phantom local write billed.
			pc.remote = true
			m.stat("storage.spill_bytes", diskB)
			m.stat("storage.remote_bytes", diskB)
			m.Server.StreamUploadBatch(m.Tag, []int64{diskB, memB}, func(int64) { fin() })
		default:
			// Remote tier: the epoch's segments coalesce into one batched
			// put on the shared pipe — one stream and one pool round trip
			// per commit, not one per segment.
			pc.remote = true
			m.stat("storage.remote_bytes", diskB)
			m.Server.StreamUploadBatch(m.Tag, []int64{diskB, memB}, func(int64) {
				m.S.DoAfter(m.Tier.Cost(diskB), "swap.epoch-rtt", fin)
			})
		}
		pend = append(pend, pc)
	}
}

// StartEpochs begins the periodic committed-epoch pipeline: a
// transparent scratch-disk checkpoint of the whole experiment every
// interval, with each fully-barriered epoch's dirty state committed to
// the file-server lineages in the background. Aborted epochs commit
// nothing — the loop retries at the next interval with a fresh epoch
// number — so the restore point Recover uses is always a consistent,
// fully-barriered epoch at most ~interval stale.
func (m *Manager) StartEpochs(interval sim.Time) *core.PeriodicCheckpointer {
	m.StopEpochs()
	m.epochLoop = &core.PeriodicCheckpointer{
		C:        m.Coord,
		Interval: interval,
		Opts:     core.Options{Incremental: true, SaveDeadline: m.SaveDeadline},
		OnResult: func(*core.Result) {
			// The epoch's memory delta reaches the server with this
			// commit, so the next swap-out's incremental memory save
			// stays sound despite the intervening checkpoint.
			ep := m.Coord.Epoch()
			m.CommitEpoch(func(int64) { m.lastSwapEpoch = ep })
		},
	}
	m.epochLoop.Start(0)
	return m.epochLoop
}

// StopEpochs halts the committed-epoch pipeline, if running.
func (m *Manager) StopEpochs() {
	if m.epochLoop != nil {
		m.epochLoop.Stop()
		m.epochLoop = nil
	}
}

// EpochAborts reports epochs the pipeline lost to aborts (0 if the
// pipeline never ran).
func (m *Manager) EpochAborts() int {
	if m.epochLoop == nil {
		return 0
	}
	return m.epochLoop.Aborts()
}

// Recover restores a crashed experiment from its last committed epoch:
// on freshly re-acquired hardware, each node's full memory image and
// its disk chain replay stream down from the file server as
// bandwidth-shared streams, then every node restarts together. Unlike
// SwapIn it does not require a preceding swap-out — the restore point
// is whatever the epoch pipeline (or an earlier park) last committed —
// and the guests resume from that epoch rather than via a held
// epoch's coordinated resume (the crashed epoch never barriered).
func (m *Manager) Recover(o Options, done func([]*InReport, error)) error {
	if m.lastCommitAt == 0 {
		return fmt.Errorf("swap: no committed epoch to recover from")
	}
	// A crashed-while-parked (or mid-park, post-freeze) tenant left a
	// held epoch on the coordinator. The recovery resumes the guests
	// from restored images, not through ResumeHeld, so the held slot
	// must clear here — otherwise the coordinator reports Busy forever
	// and the recovered tenant could never checkpoint or park again.
	m.Coord.DropHeld()
	start := m.S.Now()
	reports := make([]*InReport, len(m.Nodes))
	remaining := len(m.Nodes)
	finishAll := func() {
		// All state staged: restart every node from the restored images.
		for _, n := range m.Nodes {
			if n.HV.Crashed() {
				if err := n.HV.Restore(nil); err != nil {
					done(nil, err)
					return
				}
			} else if n.HV.K.Suspended() {
				_ = n.HV.Resume(nil)
			}
		}
		m.swappedOut = false
		now := m.S.Now()
		for _, r := range reports {
			r.Finished = now
		}
		done(reports, nil)
	}
	for i, n := range m.Nodes {
		lin := m.Lineage(n.Name)
		rep := &InReport{Started: start, Incremental: lin.Epochs() > 0, ChainDepth: lin.Depth()}
		reports[i] = rep
		// No incremental chain: the restore point is the full-copy
		// swap-out image (memory image + aggregated delta).
		diskBytes := n.AggBytesOnServer
		var plan *chainPlan
		if rep.Incremental {
			diskBytes = lin.ReplayBytes()
			// Tiered recovery: chain segments on node-local media (the
			// snapshot disk survives a fail-stop; the cache was filled by
			// the epoch pipeline's commits) restore without the pool, and
			// the misses prefetch in parallel with re-provisioning.
			plan = m.planChain(lin, nil, rep)
		}
		memBytes := n.HV.K.MemoryImageBytes()
		m.provision(n, rep, func() {
			m.Server.StreamDownload(m.Tag, memBytes, func() {
				rep.MemoryBytes = memBytes
				m.stat("in.mem_bytes", memBytes)
				finishDisk := func() {
					rep.DeltaBytes = diskBytes
					m.stat("in.disk_bytes", diskBytes)
					remaining--
					if remaining == 0 {
						finishAll()
					}
				}
				if plan != nil {
					plan.stage(m, finishDisk)
					return
				}
				if diskBytes <= 0 {
					remaining--
					if remaining == 0 {
						finishAll()
					}
					return
				}
				m.Server.StreamDownload(m.Tag, diskBytes, finishDisk)
			})
		})
	}
	return nil
}
