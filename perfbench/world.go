package main

import (
	"fmt"
	"sort"
	"time"

	"emucheck"
	"emucheck/internal/emulab"
	"emucheck/internal/guest"
	"emucheck/internal/sim"
	"emucheck/internal/simnet"
	"emucheck/internal/storage"
)

// world is one pass of a workload: the cluster plus everything the
// benchmark observes about it. Simulated-time observations are taken
// in every pass; host-time spans only when tr is non-nil.
type world struct {
	c  *emucheck.Cluster
	tr *tracer

	tenants []*tenant // submit order; branches appended as forked
	// remaining counts tenants not yet finished, including the
	// workload's future branches; the pass ends when it reaches 0.
	remaining int

	parkLat, resumeLat, frontier []float64 // simulated seconds
	ckptLat, skews               []float64 // simulated seconds
	lastFinish                   sim.Time

	ops, failed int
	failures    []string // the first few, for the report

	counts
}

// counts are the pass's simulated event counts, kept by the world and
// carried into its outcome.
type counts struct {
	ticks, usleeps, sends, delivered int64
	parks, resumes, hookErrors       int64
	parkCosts                        int64
	checkpoints, aborted             int64
}

// tenant is one experiment the workload drives.
type tenant struct {
	name     string
	sess     *emucheck.Session
	launched sim.Time // Submit or Branch call
	ticks    int
	done     bool
	acting   bool // an action is scheduled for this instant
	volPark  bool // the next Park hook call is the tenant's own swap-out
	quiet    bool // the application skips its disk writes

	onTick    func(t *tenant)                 // workload policy, per guest tick
	onRunning func(t *tenant)                 // first admission complete
	onParked  func(t *tenant, voluntary bool) // a park completed
	onFinish  func(t *tenant)
}

// appConfig shapes the guest application every tenant runs: a
// Usleep tick loop on node a, optionally a paced ping-pong from a to
// b across the shaped link, and optionally periodic disk writes on a.
type appConfig struct {
	tick       sim.Time
	ping       sim.Time // pause between round trips; 0 = no ping-pong
	writeBytes int64    // bytes per write; 0 = no writes
	writeEvery int      // ticks between writes
	// writeSpan is the hot region the writes cycle through: rewriting
	// it costs the same block-map work per write while an incremental
	// swap-out uploads each dirtied block only once.
	writeSpan int64
}

// pairSpec is a two-node experiment joined by a shaped link, so the
// testbed interposes a dummynet delay node: three pool machines.
func pairSpec(name string) emulab.Spec {
	a, b := name+".a", name+".b"
	return emulab.Spec{
		Name:  name,
		Nodes: []emulab.NodeSpec{{Name: a, Swappable: true}, {Name: b, Swappable: true}},
		Links: []emulab.LinkSpec{{A: a, B: b, Bandwidth: 100 * simnet.Mbps, Delay: 5 * sim.Millisecond}},
	}
}

func (w *world) fail(format string, args ...any) {
	w.failed++
	if len(w.failures) < 8 {
		w.failures = append(w.failures, fmt.Sprintf("t=%v ", w.c.Now())+fmt.Sprintf(format, args...))
	}
}

// usleep and send are the workload's calls into the guest kernel.
func (w *world) usleep(k *guest.Kernel, d sim.Time, fn func()) {
	w.usleeps++
	if w.tr == nil {
		k.Usleep(d, fn)
		return
	}
	t0 := time.Now()
	k.Usleep(d, fn)
	w.tr.fine(fineUsleep, int64(time.Since(t0)))
}

func (w *world) send(k *guest.Kernel, dst simnet.Addr, m *guest.Message) {
	w.sends++
	if w.tr == nil {
		k.Send(dst, 200, m)
		return
	}
	t0 := time.Now()
	k.Send(dst, 200, m)
	w.tr.fine(fineSend, int64(time.Since(t0)))
}

// app returns the Setup that installs cfg's application on t. Node
// names are the parent's logical names, so a branch resolves them
// through its alias map.
func (w *world) app(t *tenant, cfg appConfig, a, b string) func(*emucheck.Session) {
	return func(s *emucheck.Session) {
		ka, kb := s.Kernel(a), s.Kernel(b)
		var off int64
		var tick func()
		tick = func() {
			if t.done {
				return
			}
			t.ticks++
			w.ticks++
			w.c.Touch(t.name)
			if cfg.writeBytes > 0 && !t.quiet && t.ticks%cfg.writeEvery == 0 {
				ka.WriteDisk(1<<30+off%cfg.writeSpan, cfg.writeBytes, nil)
				off += cfg.writeBytes
			}
			if t.onTick != nil {
				t.onTick(t)
			}
			w.usleep(ka, cfg.tick, tick)
		}
		w.usleep(ka, cfg.tick, tick)
		if cfg.ping > 0 {
			ping, pong := &guest.Message{Port: "ping"}, &guest.Message{Port: "pong"}
			addrA, addrB := s.Addr(a), s.Addr(b)
			kb.Handle("ping", func(simnet.Addr, *guest.Message) {
				w.delivered++
				w.send(kb, addrA, pong)
			})
			send := func() { w.send(ka, addrB, ping) }
			ka.Handle("pong", func(simnet.Addr, *guest.Message) {
				w.delivered++
				if !t.done {
					w.usleep(ka, cfg.ping, send)
				}
			})
			send()
		}
		w.ops++ // the admission
		if t.onRunning != nil {
			t.onRunning(t)
		}
	}
}

// submit queues t's experiment and wraps its scheduler hooks.
func (w *world) submit(t *tenant, spec emulab.Spec, setup func(*emucheck.Session)) error {
	t.launched = w.c.Now()
	sp := w.tr.begin(spSubmit, w.c.Now())
	sess, err := w.c.Submit(emucheck.Scenario{Spec: spec, Setup: setup}, 0)
	w.tr.end(sp, w.c.Now())
	if err != nil {
		return fmt.Errorf("submit %s: %w", t.name, err)
	}
	t.sess = sess
	w.tenants = append(w.tenants, t)
	w.wrapHooks(t)
	return nil
}

// wrapHooks interposes on the scheduler's Park, Resume and ParkCost
// hooks of t's job to time them; the wrapped hooks call through
// unchanged, so the simulation is the same with or without them.
func (w *world) wrapHooks(t *tenant) {
	j := w.c.Sched.Job(t.name)
	if park := j.Hooks.Park; park != nil {
		j.Hooks.Park = func(done func(error)) {
			at := w.c.Now()
			voluntary := t.volPark
			t.volPark = false
			sp := w.tr.begin(spPark, at)
			park(func(err error) {
				w.ops++
				if err != nil {
					w.hookErrors++
					w.fail("park %s: %v", t.name, err)
				} else {
					w.parks++
					w.parkLat = append(w.parkLat, (w.c.Now() - at).Seconds())
				}
				done(err)
				if err == nil && t.onParked != nil {
					t.onParked(t, voluntary)
				}
			})
			w.tr.end(sp, w.c.Now())
		}
	}
	if resume := j.Hooks.Resume; resume != nil {
		j.Hooks.Resume = func(done func(error)) {
			at := w.c.Now()
			sp := w.tr.begin(spResume, at)
			resume(func(err error) {
				w.ops++
				if err != nil {
					w.hookErrors++
					w.fail("resume %s: %v", t.name, err)
				} else {
					w.resumes++
					w.resumeLat = append(w.resumeLat, (w.c.Now() - at).Seconds())
				}
				done(err)
			})
			w.tr.end(sp, w.c.Now())
		}
	}
	if cost := j.Hooks.ParkCost; cost != nil {
		j.Hooks.ParkCost = func() int64 {
			w.parkCosts++
			if w.tr == nil {
				return cost()
			}
			t0 := time.Now()
			n := cost()
			w.tr.fine(fineParkCost, int64(time.Since(t0)))
			return n
		}
	}
}

// act runs fn at the current instant, outside guest context, if t is
// running then. Otherwise nothing happens and the workload's policy
// asks again on the tenant's next tick, which only fires once it is
// back in service — so no action is ever issued in a state that
// would refuse it.
func (w *world) act(t *tenant, fn func()) {
	if t.acting {
		return
	}
	t.acting = true
	w.c.S.DoAfter(0, "perfbench.act", func() {
		t.acting = false
		if !t.done && t.sess.State() == "running" {
			fn()
		}
	})
}

// finish retires t, first checking that none of its checkpoint epochs
// aborted (the count lives on the experiment Finish discards).
func (w *world) finish(t *tenant) {
	if n := t.sess.EpochsAborted(); n > 0 {
		w.aborted += int64(n)
		w.fail("%s: %d checkpoint epochs aborted", t.name, n)
	}
	now := w.c.Now()
	sp := w.tr.begin(spFinish, now)
	err := w.c.Finish(t.name)
	w.tr.end(sp, w.c.Now())
	w.ops++
	if err != nil {
		w.fail("finish %s: %v", t.name, err)
		return
	}
	t.done = true
	w.remaining--
	w.lastFinish = now
	if t.onFinish != nil {
		t.onFinish(t)
	}
}

// audit checks the chain store against the references the live
// lineages imply, as the suite runner's chain-refcount invariant does.
func (w *world) audit() []error {
	expected := make(map[storage.Addr]int)
	for _, t := range w.c.Tenants() {
		for _, lin := range t.LiveLineages() {
			if lin.Store() != w.c.Chains {
				continue
			}
			for _, seg := range lin.Segments() {
				expected[seg.Addr]++
			}
		}
	}
	sp := w.tr.begin(spAudit, w.c.Now())
	errs := w.c.Chains.Audit(expected)
	w.tr.end(sp, w.c.Now())
	return errs
}

// endChecks re-derives the suite runner's invariants from public
// fields once the pass is over; each violation is a failed operation.
func (w *world) endChecks(horizon sim.Time) {
	for _, t := range w.tenants {
		if !t.done {
			w.fail("%s not done by the %v horizon (state %s)", t.name, horizon, t.sess.State())
		}
		if t.sess.LastErr != nil {
			w.fail("%s: LastErr %v", t.name, t.sess.LastErr)
		}
		if t.sess.RecordErr != nil {
			w.fail("%s: checkpoint not recorded: %v", t.name, t.sess.RecordErr)
		}
	}
	if w.remaining != 0 {
		w.fail("%d tenants never finished", w.remaining)
	}
	d := w.c.Sched
	if d.Free() != d.Capacity {
		w.fail("scheduler has %d of %d nodes free after every tenant finished", d.Free(), d.Capacity)
	}
	if n := d.CordonedNodes(); n != 0 {
		w.fail("%d nodes left cordoned", n)
	}
	if tb := w.c.TB; tb.FreeNodes != tb.PoolSize {
		w.fail("testbed has %d of %d machines free", tb.FreeNodes, tb.PoolSize)
	}
	if errs := w.audit(); len(errs) > 0 {
		w.fail("chain store audit: %d errors, first: %v", len(errs), errs[0])
	}
	if b := w.c.TB.Bus; b.Delivered+b.Dropped > b.Attempts {
		w.fail("bus delivered %d + dropped %d exceed %d attempts", b.Delivered, b.Dropped, b.Attempts)
	}
}

// digest fingerprints the pass's simulated outcomes.
func (w *world) digest() uint64 {
	d := newDigest()
	for _, t := range w.c.Tenants() {
		d.str(t.Scenario.Spec.Name)
		d.str(t.State())
		d.int(int64(t.Admissions()))
		d.int(int64(t.Preemptions()))
		d.int(int64(t.QueueWait()))
	}
	for _, t := range w.tenants {
		d.int(int64(t.ticks))
	}
	for _, xs := range [][]float64{w.parkLat, w.resumeLat, w.frontier, w.ckptLat, w.skews} {
		d.int(int64(len(xs)))
		for _, x := range xs {
			d.int(int64(x * 1e9))
		}
	}
	c := w.c
	for _, v := range []int64{
		int64(c.S.Fired()), int64(c.Now()), int64(w.lastFinish),
		w.ticks, w.usleeps, w.sends, w.delivered, w.parkCosts,
		int64(c.TB.Server.Received), int64(c.TB.Server.Served), int64(c.TB.Server.Queued),
		c.TB.Server.MulticastSavedBytes, c.TB.Server.Batches,
		c.Chains.StoredBytes(), c.Chains.GCBytes, c.Chains.DedupBytes,
		int64(c.Sched.Admissions), int64(c.Sched.Preemptions), c.Sched.PreemptedBytes,
		int64(c.TB.Bus.Published), int64(c.TB.Bus.Delivered), int64(c.TB.Bus.Dropped),
	} {
		d.int(v)
	}
	names := c.SwapStats.Names()
	sort.Strings(names)
	for _, n := range names {
		d.str(n)
		d.int(c.SwapStats.Get(n))
	}
	return d.sum()
}
