package sim

import (
	"fmt"
	"testing"
	"testing/quick"

	"bpar/internal/costmodel"
	"bpar/internal/taskrt"
)

// idealMachine has no memory/NUMA effects and no overhead, so scheduling
// laws hold exactly: duration = flops / rate.
func idealMachine(cores int) costmodel.Machine {
	return costmodel.Machine{
		Name: "ideal", Cores: cores, Sockets: 1, GHz: 1,
		CoreGFlops:     1, // exactly 1e9 flops per second
		MemBytesPerSec: 1e18, NUMAPenalty: 1,
		L3PerSocketBytes: 1 << 40,
		InstrPerFlop:     1, ColdMissPerFlop: 0,
	}
}

func flopsPerSec(m costmodel.Machine) float64 { return m.CoreGFlops * 1e9 }

type key string

// chainGraph builds a linear chain of n tasks of the given flops.
func chainGraph(n int, flops float64) *taskrt.Graph {
	r := taskrt.NewCapture()
	k := key("c")
	for i := 0; i < n; i++ {
		r.Submit(&taskrt.Task{Label: fmt.Sprintf("c%d", i), InOut: []taskrt.Dep{k}, Flops: flops, WorkingSet: 100})
	}
	return r.Graph()
}

// independentGraph builds n independent tasks.
func independentGraph(n int, flops float64) *taskrt.Graph {
	r := taskrt.NewCapture()
	for i := 0; i < n; i++ {
		r.Submit(&taskrt.Task{Label: fmt.Sprintf("i%d", i), Flops: flops, WorkingSet: 100})
	}
	return r.Graph()
}

func TestChainIsSequential(t *testing.T) {
	m := idealMachine(4)
	g := chainGraph(10, 1e9) // each task = 1e9 flops
	res, err := Run(g, Options{Machine: m})
	if err != nil {
		t.Fatal(err)
	}
	want := 10 * 1e9 / flopsPerSec(m)
	if diff := res.MakespanSec - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("chain makespan %g, want %g", res.MakespanSec, want)
	}
	if res.AvgParallelism > 1.0001 {
		t.Fatalf("chain parallelism %g", res.AvgParallelism)
	}
}

func TestIndependentTasksScale(t *testing.T) {
	m := idealMachine(4)
	g := independentGraph(8, 1e9)
	res, err := Run(g, Options{Machine: m})
	if err != nil {
		t.Fatal(err)
	}
	want := 2 * 1e9 / flopsPerSec(m) // 8 tasks / 4 cores = 2 waves
	if diff := res.MakespanSec - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("makespan %g, want %g", res.MakespanSec, want)
	}
	if res.Utilization < 0.99 {
		t.Fatalf("utilization %g", res.Utilization)
	}
}

func TestMakespanLowerBounds(t *testing.T) {
	// For any random DAG on the ideal machine:
	// makespan >= total/P and makespan >= critical path.
	f := func(seed uint64, coresRaw uint8) bool {
		cores := int(coresRaw%7) + 1
		g := randomGraph(seed, 40)
		m := idealMachine(cores)
		res, err := Run(g, Options{Machine: m})
		if err != nil {
			return false
		}
		rate := flopsPerSec(m)
		lbWork := g.TotalFlops() / rate / float64(cores)
		lbPath := g.CriticalPathFlops() / rate
		const eps = 1e-9
		return res.MakespanSec >= lbWork-eps && res.MakespanSec >= lbPath-eps
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func randomGraph(seed uint64, n int) *taskrt.Graph {
	r := taskrt.NewCapture()
	state := seed
	next := func(mod int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int((state >> 33) % uint64(mod))
	}
	keys := []taskrt.Dep{key("a"), key("b"), key("c"), key("d")}
	for i := 0; i < n; i++ {
		task := &taskrt.Task{
			Label: fmt.Sprintf("t%d", i),
			Flops: float64(next(1000)+1) * 1e6,
		}
		for j := 0; j < next(3); j++ {
			task.In = append(task.In, keys[next(len(keys))])
		}
		task.Out = []taskrt.Dep{keys[next(len(keys))]}
		r.Submit(task)
	}
	return r.Graph()
}

func TestMoreCoresNeverMuchWorse(t *testing.T) {
	// Scaling from 1 to many cores on the ideal machine must improve or
	// match the single-core time.
	g := randomGraph(7, 60)
	m1 := idealMachine(1)
	r1, err := Run(g, Options{Machine: m1})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{2, 4, 8} {
		rp, err := Run(g, Options{Machine: idealMachine(p)})
		if err != nil {
			t.Fatal(err)
		}
		if rp.MakespanSec > r1.MakespanSec*1.0001 {
			t.Fatalf("%d cores slower than 1: %g vs %g", p, rp.MakespanSec, r1.MakespanSec)
		}
	}
}

func TestSingleCoreEqualsWork(t *testing.T) {
	g := randomGraph(3, 30)
	m := idealMachine(1)
	res, err := Run(g, Options{Machine: m})
	if err != nil {
		t.Fatal(err)
	}
	want := g.TotalFlops() / flopsPerSec(m)
	if d := res.MakespanSec - want; d > 1e-9 || d < -1e-9 {
		t.Fatalf("1-core makespan %g != work %g", res.MakespanSec, want)
	}
}

func TestEmptyGraph(t *testing.T) {
	res, err := Run(&taskrt.Graph{}, Options{Machine: idealMachine(2)})
	if err != nil {
		t.Fatal(err)
	}
	if res.MakespanSec != 0 || res.Tasks != 0 {
		t.Fatal("empty graph must be free")
	}
}

func TestCacheModelRewardsLocality(t *testing.T) {
	// A graph of many independent chains: locality-aware scheduling keeps
	// each chain on one core (hot), FIFO round-robins across cores (cold).
	m := costmodel.XeonPlatinum8160x2().WithCores(4)
	r := taskrt.NewCapture()
	const chains = 16
	const length = 40
	for c := 0; c < chains; c++ {
		k := key(fmt.Sprintf("chain%d", c))
		for i := 0; i < length; i++ {
			r.Submit(&taskrt.Task{
				Label: fmt.Sprintf("c%d-%d", c, i),
				InOut: []taskrt.Dep{k},
				Flops: 50e6, WorkingSet: 5 << 20, // 5 MB per task
			})
		}
	}
	g := r.Graph()
	fifo, err := Run(g, Options{Machine: m, Policy: FIFO})
	if err != nil {
		t.Fatal(err)
	}
	loc, err := Run(g, Options{Machine: m, Policy: Locality})
	if err != nil {
		t.Fatal(err)
	}
	if loc.AvgHitRatio <= fifo.AvgHitRatio {
		t.Fatalf("locality hit ratio %g not above fifo %g", loc.AvgHitRatio, fifo.AvgHitRatio)
	}
	if loc.MakespanSec >= fifo.MakespanSec {
		t.Fatalf("locality makespan %g not below fifo %g", loc.MakespanSec, fifo.MakespanSec)
	}
	if loc.LocalityHits == 0 {
		t.Fatal("no locality hits recorded")
	}
}

func TestNUMAPenaltyVisibleAcrossSockets(t *testing.T) {
	// A producer-consumer pattern spanning a 2-socket machine must show a
	// longer makespan than on a single socket with the same core count,
	// because some consumers land on the far socket.
	m2 := costmodel.XeonPlatinum8160x2() // 48 cores, 2 sockets
	m1 := m2
	m1.Cores = 24
	m1.Sockets = 1

	r := taskrt.NewCapture()
	var roots []taskrt.Dep
	for i := 0; i < 24; i++ {
		k := key(fmt.Sprintf("r%d", i))
		roots = append(roots, k)
		r.Submit(&taskrt.Task{Label: fmt.Sprintf("p%d", i), Out: []taskrt.Dep{k}, Flops: 100e6, WorkingSet: 1 << 20})
	}
	for i := 0; i < 240; i++ {
		r.Submit(&taskrt.Task{Label: fmt.Sprintf("c%d", i), In: []taskrt.Dep{roots[i%24]}, Flops: 100e6, WorkingSet: 1 << 20})
	}
	g := r.Graph()

	res24, err := Run(g, Options{Machine: m1})
	if err != nil {
		t.Fatal(err)
	}
	res48, err := Run(g, Options{Machine: m2})
	if err != nil {
		t.Fatal(err)
	}
	// 48 cores still help overall (more parallelism than NUMA hurts here),
	// but per-task average cost must be higher due to cross-socket reads.
	avg24 := res24.TotalTaskSec / float64(res24.Tasks)
	avg48 := res48.TotalTaskSec / float64(res48.Tasks)
	if avg48 <= avg24 {
		t.Fatalf("expected NUMA to raise mean task cost: %g vs %g", avg48, avg24)
	}
}

func TestBarrierNodesSlowGraph(t *testing.T) {
	mk := func(barrier bool) *taskrt.Graph {
		r := taskrt.NewCapture()
		for layer := 0; layer < 4; layer++ {
			for i := 0; i < 8; i++ {
				// Uneven task sizes: barriers force waiting for stragglers.
				f := 1e8
				if i == 0 {
					f = 8e8
				}
				r.Submit(&taskrt.Task{Label: fmt.Sprintf("l%d-%d", layer, i), Flops: f, WorkingSet: 100})
			}
			if barrier {
				r.Barrier()
			}
		}
		return r.Graph()
	}
	m := idealMachine(8)
	free, err := Run(mk(false), Options{Machine: m})
	if err != nil {
		t.Fatal(err)
	}
	barred, err := Run(mk(true), Options{Machine: m})
	if err != nil {
		t.Fatal(err)
	}
	if barred.MakespanSec <= free.MakespanSec*1.2 {
		t.Fatalf("barriers should hurt: %g vs %g", barred.MakespanSec, free.MakespanSec)
	}
}

func TestHistogramsPopulated(t *testing.T) {
	m := costmodel.XeonPlatinum8160x2().WithCores(4)
	g := chainGraph(50, 100e6)
	res, err := Run(g, Options{Machine: m})
	if err != nil {
		t.Fatal(err)
	}
	if res.IPCHist.Total <= 0 || res.MPKIHist.Total <= 0 {
		t.Fatal("histograms must be populated")
	}
	if res.PeakRunningWS <= 0 || res.AvgRunningWS <= 0 {
		t.Fatal("working-set tracking must be populated")
	}
}

func TestRunRejectsBadGraph(t *testing.T) {
	bad := &taskrt.Graph{Nodes: []*taskrt.GraphNode{
		{ID: 0, Preds: []int{5}, DataPreds: []bool{true}},
	}}
	if _, err := Run(bad, Options{Machine: idealMachine(1)}); err == nil {
		t.Fatal("expected validation error")
	}
}

func TestPolicyString(t *testing.T) {
	if FIFO.String() != "fifo" || Locality.String() != "locality-aware" {
		t.Fatal("policy names")
	}
}

func TestSimDeterministic(t *testing.T) {
	g := randomGraph(42, 80)
	m := costmodel.XeonPlatinum8160x2()
	a, err := Run(g, Options{Machine: m, Cores: 16, Policy: Locality})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(g, Options{Machine: m, Cores: 16, Policy: Locality})
	if err != nil {
		t.Fatal(err)
	}
	if a.MakespanSec != b.MakespanSec || a.TotalTaskSec != b.TotalTaskSec ||
		a.LocalityHits != b.LocalityHits || a.Steals != b.Steals {
		t.Fatalf("simulation not deterministic: %v vs %v", a, b)
	}
}

func TestSimInvariants(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		g := randomGraph(seed, 60)
		for _, cores := range []int{1, 4, 48} {
			for _, pol := range []Policy{FIFO, Locality} {
				r, err := Run(g, Options{Machine: costmodel.XeonPlatinum8160x2(), Cores: cores, Policy: pol})
				if err != nil {
					t.Fatal(err)
				}
				if r.Utilization < 0 || r.Utilization > 1.0001 {
					t.Fatalf("utilization %g out of range", r.Utilization)
				}
				if r.AvgRunningTasks > float64(cores)+1e-9 {
					t.Fatalf("avg running tasks %g exceeds %d cores", r.AvgRunningTasks, cores)
				}
				busy := 0.0
				for _, b := range r.CoreBusySec {
					if b < 0 {
						t.Fatal("negative busy time")
					}
					busy += b
				}
				if diff := busy - r.TotalTaskSec; diff > 1e-9 || diff < -1e-9 {
					t.Fatalf("core busy sum %g != total task time %g", busy, r.TotalTaskSec)
				}
				if r.AvgHitRatio < 0 || r.AvgHitRatio > 1 {
					t.Fatalf("hit ratio %g out of range", r.AvgHitRatio)
				}
			}
		}
	}
}

func TestIdleThievesScatterALoneChain(t *testing.T) {
	// A single chain on a near-idle large machine: spinning thieves win
	// every release, so no chain task runs on its locality-preferred core.
	g := chainGraph(200, 50e6)
	r, err := Run(g, Options{Machine: costmodel.XeonPlatinum8160x2(), Cores: 48, Policy: Locality})
	if err != nil {
		t.Fatal(err)
	}
	if r.LocalityHits != 0 {
		t.Fatalf("lone chain on 48 idle cores: %d locality hits, want 0", r.LocalityHits)
	}
}

func TestCriticalPathPolicyRunsAndHelpsImbalance(t *testing.T) {
	// A long chain plus many independent fillers: critical-path scheduling
	// must start the chain immediately rather than draining fillers first.
	r := taskrt.NewCapture()
	k := key("chain")
	for i := 0; i < 20; i++ {
		r.Submit(&taskrt.Task{Label: fmt.Sprintf("chain%d", i), InOut: []taskrt.Dep{k}, Flops: 1e9, WorkingSet: 100})
	}
	for i := 0; i < 60; i++ {
		r.Submit(&taskrt.Task{Label: fmt.Sprintf("f%d", i), Flops: 1e9, WorkingSet: 100})
	}
	g := r.Graph()
	m := idealMachine(4)
	fifo, err := Run(g, Options{Machine: m, Policy: FIFO})
	if err != nil {
		t.Fatal(err)
	}
	cp, err := Run(g, Options{Machine: m, Policy: CriticalPath})
	if err != nil {
		t.Fatal(err)
	}
	// Ideal: chain (20s) overlaps fillers (60/3 cores = 20s) → 20s.
	// FIFO drains the mixed queue and strands the chain tail.
	if cp.MakespanSec > 20.5 {
		t.Fatalf("critical-path makespan %g, want ~20s", cp.MakespanSec)
	}
	if cp.MakespanSec >= fifo.MakespanSec {
		t.Fatalf("critical-path (%g) should beat FIFO (%g) here", cp.MakespanSec, fifo.MakespanSec)
	}
	if CriticalPath.String() != "critical-path" {
		t.Fatal("policy name")
	}
}

func TestMeasuredDurationsOverride(t *testing.T) {
	m := idealMachine(1)
	g := chainGraph(4, 1e9) // cost model would say 1s per task
	durs := []float64{0.1, 0.2, 0.3, 0.4}
	res, err := Run(g, Options{Machine: m, Durations: durs})
	if err != nil {
		t.Fatal(err)
	}
	want := 1.0 // measured durations replace the model entirely
	if diff := res.MakespanSec - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("measured-duration makespan %g, want %g", res.MakespanSec, want)
	}
	if diff := res.TotalTaskSec - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("measured-duration work %g, want %g", res.TotalTaskSec, want)
	}
}

func TestMeasuredDurationsLengthChecked(t *testing.T) {
	g := chainGraph(3, 1e9)
	if _, err := Run(g, Options{Machine: idealMachine(1), Durations: []float64{0.1}}); err == nil {
		t.Fatal("length-mismatched Durations accepted")
	}
}
