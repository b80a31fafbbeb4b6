package main

import (
	"fmt"

	"emucheck"
	"emucheck/internal/core"
	"emucheck/internal/sim"
)

// workload is one closed batch: a fixed amount of simulated work,
// built from the seed, run until every tenant has finished.
type workload struct {
	name string
	why  string
	// horizon bounds the simulated run; a tenant still live then is a
	// failure.
	horizon sim.Time
	// slice is the RunFor step; heap, queue and audit samples are
	// taken between slices, outside the timed part.
	slice sim.Time
	// build is the set-up: NewCluster, ConfigureStorage and every
	// Submit.
	build func(seed int64, tr *tracer) (*world, error)
}

var workloads = []*workload{
	{
		name:    "fleet",
		why:     "hundreds of ticking, ping-ponging 2-node tenants on an oversubscribed pool: guest timers, firewall, event heap, simnet/dummynet and GC; little swapping",
		horizon: 30 * sim.Minute,
		slice:   5 * sim.Second,
		build:   buildFleet,
	},
	{
		name:    "swapchurn",
		why:     "disk-writing tenants that swap out when idle and back in later, plus preemption: swap commits, xfer contention, remote tier and delta cache",
		horizon: 24 * sim.Hour,
		slice:   20 * sim.Second,
		build:   buildSwapchurn,
	},
	{
		name:    "fanout",
		why:     "one journaled parent checkpointed and forked 8 ways, round after round: fork by reference, chain GC, multicast staging, gang admission",
		horizon: 24 * sim.Hour,
		slice:   10 * sim.Second,
		build:   buildFanout,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// seeded draws a value in [lo, lo+span) from the seed, tenant index
// and axis, so each input is a pure function of the seed.
func seeded(seed int64, i, axis, lo, span int64) int64 {
	return lo + int64(sim.Mix64(seed, i, axis)%uint64(span))
}

// batchFrontier records the launch-to-running time of a batch of
// tenants launched together: the time from their launch until the
// last of them first runs.
func (w *world) batchFrontier(members int) func(*tenant) {
	running := 0
	return func(t *tenant) {
		running++
		if running == members {
			w.frontier = append(w.frontier, (w.c.Now() - t.launched).Seconds())
		}
	}
}

const (
	fleetTenants = 256
	fleetPool    = 640 // 768 machines of demand: 1.2x oversubscribed
)

// buildFleet: every tenant ticks every 100 ms and runs a ping-pong
// paced at 50 ms through its delay node, and finishes after a seeded
// 60-90 s of its own virtual time.
func buildFleet(seed int64, tr *tracer) (*world, error) {
	c := emucheck.NewCluster(fleetPool, seed, emucheck.IdleFirst)
	c.Incremental = true
	w := &world{c: c, tr: tr, remaining: fleetTenants}
	cfg := appConfig{tick: 100 * sim.Millisecond, ping: 50 * sim.Millisecond}
	running := w.batchFrontier(fleetTenants)
	for i := 0; i < fleetTenants; i++ {
		name := fmt.Sprintf("f%03d", i)
		target := int(seeded(seed, int64(i), 1, 600, 300))
		t := &tenant{name: name, onRunning: running}
		t.onTick = func(t *tenant) {
			if t.ticks >= target {
				w.act(t, func() { w.finish(t) })
			}
		}
		if err := w.submit(t, pairSpec(name), w.app(t, cfg, name+".a", name+".b")); err != nil {
			return nil, err
		}
	}
	return w, nil
}

const (
	churnTenants = 48
	churnPool    = 90 // 144 machines of demand
	churnCycles  = 4  // runs per tenant; a swap-out between each two
	churnRun     = 300
	churnBurst   = 60 // ticks after each resume that write
)

// buildSwapchurn: every tenant ticks once a second and writes 4 MB
// per tick into a 64 MB region for the first minute after each
// admission, then idles. After 300 ticks in service it swaps itself
// out, as Emulab's idle-swap does, and asks to come back after 2.5-3.5
// hours; after four runs it finishes. First runs are shortened by
// staggered offsets so swap-outs do not all start at once, and the
// gaps keep the file server about a third busy: a busier server makes
// every latency hostage to which swaps happen to overlap. The
// checkpoint chains live on the remote tier behind a delta cache.
func buildSwapchurn(seed int64, tr *tracer) (*world, error) {
	c := emucheck.NewCluster(churnPool, seed, emucheck.IdleFirst)
	c.Incremental = true
	if err := c.ConfigureStorage(emucheck.StorageOptions{Backend: "remote", CacheMB: 512}); err != nil {
		return nil, err
	}
	w := &world{c: c, tr: tr, remaining: churnTenants}
	cfg := appConfig{tick: sim.Second, writeBytes: 4 << 20, writeEvery: 1, writeSpan: 64 << 20}
	running := w.batchFrontier(churnTenants)
	for i := 0; i < churnTenants; i++ {
		name := fmt.Sprintf("s%02d", i)
		// Idle gaps and first-run lengths are spread evenly over the
		// tenants and the seed only jitters them: larger input jitter
		// moves the park and resume medians from seed to seed.
		gap := sim.Time(9000+3600*i/churnTenants+int(seeded(seed, int64(i), 2, 0, 20))) * sim.Second
		next := churnBurst + churnRun*i/churnTenants + int(seeded(seed, int64(i), 4, 0, 5)) // tick of the next swap-out
		quietAt := churnBurst
		runs := 1
		t := &tenant{name: name, onRunning: running}
		t.onTick = func(t *tenant) {
			t.quiet = t.ticks >= quietAt
			switch {
			case t.ticks < next:
			case runs == churnCycles:
				w.act(t, func() { w.finish(t) })
			default:
				w.act(t, func() {
					t.volPark = true
					if err := c.Park(t.name); err != nil {
						t.volPark = false
						w.fail("park %s: %v", t.name, err)
					}
				})
			}
		}
		t.onParked = func(t *tenant, voluntary bool) {
			if !voluntary {
				return // preempted: the scheduler re-queues it
			}
			runs++
			next = t.ticks + churnRun
			quietAt = t.ticks + churnBurst
			c.S.DoAfter(gap, "perfbench.unpark", func() {
				w.ops++
				if err := c.Unpark(t.name); err != nil {
					w.fail("unpark %s: %v", t.name, err)
				}
			})
		}
		if err := w.submit(t, pairSpec(name), w.app(t, cfg, name+".a", name+".b")); err != nil {
			return nil, err
		}
	}
	return w, nil
}

const (
	fanoutWidth  = 8
	fanoutRounds = 160
	fanoutPool   = 3 * fanoutWidth // the gang fills the pool: the parent is preempted each round
	parentRun    = 60              // parent ticks (100 ms) between rounds
	branchRun    = 80              // branch ticks before it finishes
)

// buildFanout: the parent ticks every 100 ms and journals 64 KB to
// disk every second. Each of 160 rounds checkpoints it, forks eight
// branches from the checkpoint (gang-admitted, which preempts the
// parent), runs them for a seeded 8-10 s of virtual time and finishes
// them, releasing their chains; the parent resumes and the next round
// starts 6 s later. The branches only tick, so the fork, staging and
// restore path is most of the work.
func buildFanout(seed int64, tr *tracer) (*world, error) {
	c := emucheck.NewCluster(fanoutPool, seed, emucheck.IdleFirst)
	c.Incremental = true
	if err := c.ConfigureStorage(emucheck.StorageOptions{Backend: "remote", CacheMB: 512}); err != nil {
		return nil, err
	}
	w := &world{c: c, tr: tr, remaining: 1 + fanoutRounds*fanoutWidth}
	parentCfg := appConfig{tick: 100 * sim.Millisecond, writeBytes: 64 << 10, writeEvery: 10, writeSpan: 1 << 30}
	branchCfg := appConfig{tick: 100 * sim.Millisecond}
	const pname = "p"
	parent := &tenant{name: pname}
	round, nextAt, active := 0, parentRun, false

	fork := func() {
		launched := c.Now()
		running := w.batchFrontier(fanoutWidth)
		left := fanoutWidth
		bts := make([]*tenant, fanoutWidth)
		specs := make([]emucheck.BranchSpec, fanoutWidth)
		for i := range specs {
			bt := &tenant{name: fmt.Sprintf("%s.r%02d.b%d", pname, round, i), launched: launched, onRunning: running}
			target := int(seeded(seed, int64(round*fanoutWidth+i), 3, branchRun, 20))
			bt.onTick = func(t *tenant) {
				if t.ticks >= target {
					w.act(t, func() { w.finish(t) })
				}
			}
			bt.onFinish = func(*tenant) {
				if left--; left == 0 {
					active = false
					round++
					nextAt = parent.ticks + parentRun
				}
			}
			bts[i] = bt
			specs[i] = emucheck.BranchSpec{Name: bt.name, Setup: w.app(bt, branchCfg, pname+".a", pname+".b")}
		}
		sp := w.tr.begin(spBranch, c.Now())
		sessions, err := c.Branch(pname, parent.sess.Tree.Head(), specs...)
		w.tr.end(sp, c.Now())
		w.ops++
		if err != nil {
			w.fail("branch round %d: %v", round, err)
			return
		}
		for i, s := range sessions {
			bts[i].sess = s
			w.tenants = append(w.tenants, bts[i])
			w.wrapHooks(bts[i])
		}
	}
	startRound := func() {
		active = true
		at := c.Now()
		sp := w.tr.begin(spCheckpoint, at)
		err := parent.sess.CheckpointAsync(core.Options{Incremental: true}, func(r *core.Result, err error) {
			if err != nil {
				w.fail("checkpoint round %d: %v", round, err)
				return
			}
			w.checkpoints++
			w.ckptLat = append(w.ckptLat, (c.Now() - at).Seconds())
			w.skews = append(w.skews, r.SuspendSkew.Seconds())
			// Fork from a fresh event, not from inside the coordinator's
			// completion callback.
			c.S.DoAfter(0, "perfbench.fork", fork)
		})
		w.tr.end(sp, c.Now())
		w.ops++
		if err != nil {
			w.fail("checkpoint round %d: %v", round, err)
		}
	}
	parent.onTick = func(t *tenant) {
		switch {
		case active:
		case round == fanoutRounds:
			w.act(t, func() { w.finish(t) })
		case t.ticks >= nextAt:
			w.act(t, startRound)
		}
	}
	if err := w.submit(parent, pairSpec(pname), w.app(parent, parentCfg, pname+".a", pname+".b")); err != nil {
		return nil, err
	}
	return w, nil
}
