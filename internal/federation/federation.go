// Package federation shards one simulated testbed fleet into N
// federated facilities and runs them as a conservative parallel
// discrete-event simulation (ROADMAP item 3, scale-out).
//
// Each Facility is a self-contained world — its own sim.Simulator,
// scheduler, control-LAN bus and delta cache — so facilities can
// advance concurrently on separate goroutines. The only coupling is
// WAN traffic, and every WAN link declares a minimum latency of at
// least the lookahead window L: a message emitted during the window
// [T, T+L) cannot arrive before T+L, so each world advances to the
// barrier without ever observing a peer's present (sim.Windows). At
// the barrier, collected messages are sorted into canonical (when,
// facility, seq) order, priced through their WAN link, and injected
// into the destination worlds. The worker count therefore changes
// wall-clock only: a run at 8 facility-workers is byte-identical to
// the serial reference at 1, which the digest tests pin.
//
// On top of the shards rides the federation data plane:
//
//   - a shared global pool (a storage.RemoteKind tier) holding every
//     parked tenant's checkpoint chain, the authority that makes a
//     tenant restorable anywhere in the federation;
//   - cross-facility migration of parked tenants, decided at barriers
//     by a load-balancing controller and shipped over the WAN with
//     optional storage.DeltaCache warm-up at the destination, so the
//     eventual restore replays locally instead of re-streaming from
//     the pool;
//   - a global admission layer that places each new tenant on the
//     least-loaded facility (sched.Demand).
package federation

import (
	"container/list"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"

	"emucheck/internal/notify"
	"emucheck/internal/sched"
	"emucheck/internal/sim"
	"emucheck/internal/storage"
	"emucheck/internal/xfer"
)

// DefaultLookahead is the conservative window width used when Config
// leaves Lookahead zero (and the floor a default WAN latency sits at).
const DefaultLookahead = 250 * sim.Millisecond

// Config sizes one federated run. Zero values take defaults; see
// withDefaults.
type Config struct {
	// Facilities is the shard count N (default 1: the single-world
	// reference); Tenants the fleet size across the federation.
	Facilities int
	Tenants    int
	// PoolPer is each facility's hardware pool; 0 sizes it
	// clamp(perFacilityTenants/4, 4, 256), the scale table's pool.
	PoolPer int
	Seed    int64
	// Workers is the facility-worker pool width: 1 (default) is the
	// serial reference, 0 means GOMAXPROCS. Never affects results.
	Workers int
	// Lookahead is the conservative window L (default 250 ms);
	// WANLatency the per-link propagation delay (default L; must be
	// >= L, validated); WANRate the link bandwidth (default 1 Gbps).
	Lookahead  sim.Time
	WANLatency sim.Time
	WANRate    int64
	// CacheBytes is each facility's delta-cache capacity (default 64 MB).
	CacheBytes int64
	// Migration enables the barrier-time load balancer; WarmUp makes
	// migrations pre-seed the destination cache with the tenant's
	// chain. MigrationGap is the live-demand imbalance that triggers a
	// migration (default 4).
	Migration    bool
	WarmUp       bool
	MigrationGap int
	// Horizon bounds the run (default 20 simulated minutes); the run
	// stops early once every tenant finished.
	Horizon sim.Time
}

func (cfg Config) withDefaults() Config {
	if cfg.Facilities <= 0 {
		cfg.Facilities = 1
	}
	if cfg.Tenants <= 0 {
		panic("federation: config needs a positive tenant count")
	}
	if cfg.Workers < 0 {
		cfg.Workers = 1
	}
	if cfg.Lookahead <= 0 {
		cfg.Lookahead = DefaultLookahead
	}
	if cfg.WANLatency == 0 {
		cfg.WANLatency = cfg.Lookahead
	}
	if cfg.WANLatency < cfg.Lookahead {
		panic(fmt.Sprintf("federation: WAN latency %v below lookahead %v breaks the conservative window",
			cfg.WANLatency, cfg.Lookahead))
	}
	if cfg.WANRate <= 0 {
		cfg.WANRate = xfer.DefaultWANRate
	}
	if cfg.CacheBytes <= 0 {
		cfg.CacheBytes = 64 << 20
	}
	if cfg.PoolPer <= 0 {
		per := cfg.Tenants / cfg.Facilities / 4
		if per < 4 {
			per = 4
		}
		if per > 256 {
			per = 256
		}
		cfg.PoolPer = per
	}
	if cfg.MigrationGap <= 0 {
		cfg.MigrationGap = 4
	}
	if cfg.Horizon <= 0 {
		cfg.Horizon = 20 * sim.Minute
	}
	return cfg
}

// msgKind discriminates barrier-exchanged messages.
type msgKind uint8

const (
	msgSync    msgKind = iota // cross-facility workload chatter
	msgMigrate                // parked-tenant handoff
)

// Message is one cross-facility WAN message, collected in the source
// facility's outbox during a window and routed at the barrier.
type Message struct {
	Kind msgKind
	// When is the send time, Src/Seq the canonical-order key within
	// it, Dst the destination facility.
	When     sim.Time
	Src, Dst int
	Seq      int64
	// Bytes rides the WAN link's cost model.
	Bytes   int64
	Payload int64

	// Migration payload: the tenant, its warm-up plan (the chain
	// segments the destination cache lacks, empty when warm-up is
	// off), and its pending wake-up.
	tenant *tenant
	plan   []storage.Segment
	wakeAt sim.Time
}

// Federation is one federated run's shared state. Everything here is
// touched only before the run, at window barriers, or after the run —
// never by window code — so the facility worlds share nothing.
type Federation struct {
	cfg        Config
	Facilities []*Facility
	// Pool is the shared global pool: the authoritative home of every
	// committed checkpoint chain, reachable from any facility.
	Pool *storage.Tier
	// links[src][dst] is the directed WAN mesh (nil on the diagonal).
	links [][]*xfer.WANLink
	win   *sim.Windows
	// tenants indexes the fleet by global id.
	tenants []*tenant

	// Migrations counts tenant handoffs decided by the balancer.
	Migrations int
}

// New builds the federation: facilities, WAN mesh, and the fleet
// placed by the global admission layer.
func New(cfg Config) *Federation {
	cfg = cfg.withDefaults()
	fed := &Federation{cfg: cfg, Pool: storage.NewTier(storage.RemoteKind, 0)}
	var worlds []*sim.Simulator
	for i := 0; i < cfg.Facilities; i++ {
		s := sim.New(int64(sim.Mix64(cfg.Seed, int64(i))))
		fac := &Facility{
			Idx: i, S: s,
			Sched:    sched.New(s, cfg.PoolPer, sched.IdleFirst),
			Bus:      notify.NewBus(s),
			Cache:    storage.NewDeltaCache(cfg.CacheBytes, nil),
			fed:      fed,
			sleepers: list.New(),
		}
		fac.Sched.MinResidency = 5 * sim.Second
		fed.Facilities = append(fed.Facilities, fac)
		worlds = append(worlds, s)
	}
	fed.links = make([][]*xfer.WANLink, cfg.Facilities)
	for i := range fed.links {
		fed.links[i] = make([]*xfer.WANLink, cfg.Facilities)
		for j := range fed.links[i] {
			if i == j {
				continue
			}
			fed.links[i][j] = xfer.NewWANLink(
				fmt.Sprintf("fac%d->fac%d", i, j), cfg.WANLatency, cfg.WANRate)
		}
	}
	fed.place()
	fed.win = &sim.Windows{
		Worlds:    worlds,
		Lookahead: cfg.Lookahead,
		Workers:   cfg.Workers,
		Exchange:  fed.exchange,
	}
	return fed
}

// place is the global admission layer: tenants arrive in id order and
// each is placed on the facility with the least live hardware demand
// (ties to the lowest index) — deterministic because sched.Demand is
// a pure function of the submission history. Initial chains are
// committed to the shared pool before the worlds start.
func (fed *Federation) place() {
	for id := 0; id < fed.cfg.Tenants; id++ {
		best := 0
		for i, fac := range fed.Facilities {
			if fac.Sched.Demand() < fed.Facilities[best].Sched.Demand() {
				best = i
			}
		}
		fac := fed.Facilities[best]
		t := fed.newTenant(id, fac)
		for _, seg := range t.chain {
			fed.Pool.Put(seg.Addr, seg.Bytes)
		}
		t.committed = len(t.chain)
		fed.tenants = append(fed.tenants, t)
		if err := fac.Sched.Submit(t.job); err != nil {
			panic("federation: submit " + t.name + ": " + err.Error())
		}
	}
}

func (fed *Federation) nFacilities() int { return len(fed.Facilities) }

// Run drives the federation to the horizon (or until the fleet
// drains) and reports the outcome.
func (fed *Federation) Run() *Result {
	chunk := 16 * fed.cfg.Lookahead
	for now := sim.Time(0); now < fed.cfg.Horizon && !fed.drained(); {
		next := now + chunk
		if next > fed.cfg.Horizon {
			next = fed.cfg.Horizon
		}
		fed.win.Run(next)
		now = next
	}
	return fed.result()
}

// drained reports whether every tenant finished. Checked only between
// window chunks, so the stopping point is identical at every worker
// count.
func (fed *Federation) drained() bool {
	done := 0
	for _, fac := range fed.Facilities {
		done += fac.completed
	}
	return done == len(fed.tenants)
}

// exchange is the single-threaded window barrier: all worlds stand
// exactly at end. Pending chain commits land in the shared pool, the
// balancer decides migrations, and every collected message is routed
// in canonical (when, facility, seq) order through its WAN link into
// the destination world.
func (fed *Federation) exchange(end sim.Time) {
	fed.commitChains()
	if fed.cfg.Migration {
		fed.rebalance()
	}
	var msgs []Message
	for _, fac := range fed.Facilities {
		msgs = append(msgs, fac.outbox...)
		fac.outbox = fac.outbox[:0]
	}
	sort.Slice(msgs, func(a, b int) bool {
		if msgs[a].When != msgs[b].When {
			return msgs[a].When < msgs[b].When
		}
		if msgs[a].Src != msgs[b].Src {
			return msgs[a].Src < msgs[b].Src
		}
		return msgs[a].Seq < msgs[b].Seq
	})
	for i := range msgs {
		fed.route(msgs[i], end)
	}
}

// commitChains flushes delta segments dirtied during the window to
// the shared pool, facility by facility in index order.
func (fed *Federation) commitChains() {
	for _, fac := range fed.Facilities {
		for _, t := range fac.pendingCommit {
			for _, seg := range t.chain[t.committed:] {
				fed.Pool.Put(seg.Addr, seg.Bytes)
			}
			t.committed = len(t.chain)
			t.pending = false
		}
		fac.pendingCommit = fac.pendingCommit[:0]
	}
}

// rebalance is the migration controller: when the live-demand gap
// between the most- and least-loaded facilities reaches the trigger,
// the longest-sleeping parked tenant of the loaded facility is handed
// off, its chain (optionally) shipped ahead as destination cache
// warm-up. One migration per barrier keeps the controller gentle.
func (fed *Federation) rebalance() {
	if fed.nFacilities() < 2 {
		return
	}
	src, dst := fed.Facilities[0], fed.Facilities[0]
	for _, fac := range fed.Facilities[1:] {
		if fac.Sched.Demand() > src.Sched.Demand() {
			src = fac
		}
		if fac.Sched.Demand() < dst.Sched.Demand() {
			dst = fac
		}
	}
	if src.Sched.Demand()-dst.Sched.Demand() < fed.cfg.MigrationGap {
		return
	}
	t := src.popSleeper()
	if t == nil {
		return
	}
	t.unbind()
	if err := src.Sched.Finish(t.name); err != nil {
		panic("federation: migrate finish " + t.name + ": " + err.Error())
	}
	src.Departures++
	fed.Migrations++
	m := Message{
		Kind: msgMigrate, Dst: dst.Idx,
		Bytes:  migrationControlBytes,
		tenant: t,
		wakeAt: t.wakeAt,
	}
	if fed.cfg.WarmUp {
		m.plan = planWarmUp(t.chain[:t.committed], dst.Cache)
		m.Bytes += chainBytes(m.plan)
	}
	src.send(m)
}

// migrationControlBytes is the metadata a migration always ships
// (manifest, placement record) even when warm-up is off.
const migrationControlBytes = 64 << 10

// route prices one message through its WAN link and schedules its
// delivery in the destination world. The latency floor guarantees
// the arrival is at or after the barrier — every world's clock — so
// the injection can never violate causality.
func (fed *Federation) route(m Message, end sim.Time) {
	arrival := fed.links[m.Src][m.Dst].Send(m.When, m.Bytes)
	if arrival < end {
		panic(fmt.Sprintf("federation: WAN arrival %v inside the window ending %v", arrival, end))
	}
	dst := fed.Facilities[m.Dst]
	dst.S.DoAt(arrival, "fed.wan", func() { dst.deliver(m, arrival) })
}

// deliver runs in the destination world at the message's arrival.
func (fac *Facility) deliver(m Message, arrival sim.Time) {
	switch m.Kind {
	case msgSync:
		fac.WANDeliveries++
		fac.wanSum += m.Payload
	case msgMigrate:
		t := m.tenant
		fac.Arrivals++
		t.migrations++
		if len(m.plan) > 0 {
			warmUp(m.plan, fac.Cache)
		}
		t.bind(fac)
		t.sleeping = false
		wake := m.wakeAt
		if wake < arrival {
			wake = arrival
		}
		fac.S.DoAt(wake, "fed.rejoin", func() {
			if err := fac.Sched.Submit(t.job); err != nil {
				panic("federation: rejoin " + t.name + ": " + err.Error())
			}
		})
	}
}

// Result is one federated run's sim-domain outcome plus its digest.
// Every field is bit-deterministic under (config, seed) — there are
// no wall-clock fields here; timing lives in the evalrun table.
type Result struct {
	Facilities int     `json:"facilities"`
	Tenants    int     `json:"tenants"`
	Workers    int     `json:"workers"`
	SimS       float64 `json:"sim_s"`
	Events     uint64  `json:"events"`
	Ticks      int64   `json:"ticks"`
	Windows    int64   `json:"windows"`
	Completed  int     `json:"completed"`
	Migrations int     `json:"migrations"`
	WANMsgs    int64   `json:"wan_msgs"`
	WANMB      float64 `json:"wan_mb"`
	WarmedMB   float64 `json:"warmed_mb"`
	LocalMB    float64 `json:"local_mb"`
	RemoteMB   float64 `json:"remote_mb"`
	PoolMB     float64 `json:"pool_mb"`
	Digest     string  `json:"digest"`
}

func (fed *Federation) result() *Result {
	r := &Result{
		Facilities: fed.cfg.Facilities,
		Tenants:    fed.cfg.Tenants,
		Workers:    fed.cfg.Workers,
		Windows:    fed.win.Barriers,
		Migrations: fed.Migrations,
		PoolMB:     float64(fed.Pool.StoredBytes()) / (1 << 20),
		Digest:     fed.Digest(),
	}
	for _, fac := range fed.Facilities {
		if s := fac.S.Now().Seconds(); s > r.SimS {
			r.SimS = s
		}
		r.Events += fac.S.Fired()
		r.Ticks += fac.ticks
		r.Completed += fac.completed
		cs := fac.Cache.Stats()
		r.WarmedMB += float64(cs.WarmedBytes) / (1 << 20)
		r.LocalMB += float64(fac.LocalBytes) / (1 << 20)
		r.RemoteMB += float64(fac.RemoteBytes) / (1 << 20)
	}
	for _, row := range fed.links {
		for _, l := range row {
			if l == nil {
				continue
			}
			r.WANMsgs += l.Msgs
			r.WANMB += float64(l.Bytes) / (1 << 20)
		}
	}
	return r
}

// Digest folds the federation's sim-domain outcome into a hex FNV-64a:
// per-facility clocks, ledgers and cache stats in index order, then
// per-tenant state in global id order, then the WAN mesh and pool.
// Same (config, seed) must reproduce it byte for byte at any worker
// count, on any machine.
func (fed *Federation) Digest() string {
	h := fnv.New64a()
	w := func(vs ...int64) {
		var b [8]byte
		for _, v := range vs {
			binary.LittleEndian.PutUint64(b[:], uint64(v))
			h.Write(b[:])
		}
	}
	for _, fac := range fed.Facilities {
		d := fac.Sched
		w(int64(fac.S.Now()), int64(fac.S.Fired()), fac.ticks, int64(fac.completed),
			fac.WANDeliveries, fac.wanSum, fac.LocalBytes, fac.RemoteBytes,
			int64(fac.Arrivals), int64(fac.Departures),
			int64(d.Admissions), int64(d.Preemptions), d.PreemptedBytes,
			int64(d.MeanQueueWait()), int64(fac.Bus.Published), int64(fac.Bus.Delivered))
		cs := fac.Cache.Stats()
		w(cs.Hits, cs.Misses, cs.HitBytes, cs.MissBytes, cs.Evictions,
			cs.Rejected, cs.Warmed, cs.WarmedBytes, fac.Cache.Used())
	}
	for _, t := range fed.tenants {
		state := int64(0)
		if t.done {
			state = 1
		}
		w(int64(t.fac.Idx), state, int64(t.ticks), int64(t.migrations),
			t.deliveries, int64(t.committed))
	}
	for _, row := range fed.links {
		for _, l := range row {
			if l == nil {
				continue
			}
			w(l.Msgs, l.Bytes, int64(l.Queued))
		}
	}
	w(fed.Pool.StoredBytes(), int64(fed.Pool.SegmentCount()), int64(fed.Migrations))
	return fmt.Sprintf("%016x", h.Sum64())
}

// Run is the package entry point: build and run one federated fleet.
func Run(cfg Config) *Result {
	return New(cfg).Run()
}
