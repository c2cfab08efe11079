package experiment

import (
	"context"
	"runtime"
	"testing"

	"adhocga/internal/scenario"
)

// The dynamics determinism contract, golden-pinned: a dynamics-enabled run
// (churn + rewiring + the full Byzantine cohort + gossip) is bit-identical
// across GOMAXPROCS and worker-pool sizes, and fully reproducible from the
// root seed. The hex literals were recorded at parallelism 1; any drift
// means the perturbation stream derivation or the barrier phasing changed,
// not just scheduling. (Dynamics-DISABLED bit-identity to the static
// reproduction is pinned separately by TestRunCaseGoldenBitIdentical and
// the reproduction suite, which this PR leaves untouched.)

func dynGoldenSpec() scenario.Spec {
	return scenario.Spec{
		Name:         "dyn golden",
		Environments: []scenario.EnvSpec{{Name: "TE2", CSN: 10}},
		PathMode:     "SP",
		Dynamics: &scenario.DynamicsSpec{
			Interval: 2, ChurnRate: 0.2, RewireProb: 0.5, RewireStep: 0.25,
			FreeRiders: 2, Liars: 2, OnOff: 2,
		},
		Gossip: &scenario.GossipSpec{Interval: 10},
	}
}

func TestDynamicsGoldenBitIdenticalAcrossGOMAXPROCS(t *testing.T) {
	sc := Scale{Name: "golden", Generations: 5, Rounds: 30, Repetitions: 2}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		res, err := RunScenariosContext(context.Background(), []ScenarioRun{{Spec: dynGoldenSpec(), Seed: 42}}, sc,
			Options{Seed: 42, Parallelism: procs})
		if err != nil {
			t.Fatal(err)
		}
		r := res[0]
		checkSeries(t, "CoopMean", r.CoopMean, []string{
			"0x1.4c71034c71035p-03", "0x1.f284cdf284cep-04", "0x1.7a0c557a0c558p-04",
			"0x1.aacf61aacf61ap-05", "0x1.f1f1f1f1f1f2p-05",
		})
		if r.FinalCoop.Mean != hexf(t, "0x1.f1f1f1f1f1f2p-05") ||
			r.FinalCoop.StdDev != hexf(t, "0x1.6b755bc3b7743p-10") {
			t.Errorf("GOMAXPROCS %d: FinalCoop = %+v", procs, r.FinalCoop)
		}
		if r.FromByz.Accepted != 1057 || r.FromByz.RejectedByNormal != 1497 ||
			r.FromByz.RejectedBySelfish != 579 || r.FromByz.RejectedByByzantine != 159 {
			t.Errorf("GOMAXPROCS %d: FromByz = %+v", procs, r.FromByz)
		}
		if r.Recovery == nil || len(r.Recovery.Barriers) != 2 ||
			r.Recovery.MeanDip != hexf(t, "0x1.539cc1539cc14p-07") {
			t.Errorf("GOMAXPROCS %d: Recovery = %+v", procs, r.Recovery)
		}
		if r.Census.Total() != 200 {
			t.Errorf("GOMAXPROCS %d: census total %d", procs, r.Census.Total())
		}
		top := r.Census.Top(1)
		if len(top) != 1 || top[0].Strategy.Key() != "0000100101110" ||
			top[0].Fraction != hexf(t, "0x1.eb851eb851eb8p-07") {
			t.Errorf("GOMAXPROCS %d: top strategy = %+v", procs, top)
		}
	}
}

// TestDynamicsDisabledSpecMatchesPlainRun pins that attaching an all-zero
// dynamics block (and no gossip) is the SAME run as no block at all: the
// perturbation stream may only be split when something actually perturbs.
func TestDynamicsDisabledSpecMatchesPlainRun(t *testing.T) {
	sc := Scale{Name: "golden", Generations: 3, Rounds: 30, Repetitions: 2}
	base := scenario.Spec{
		Name:         "static control",
		Environments: []scenario.EnvSpec{{Name: "TE2", CSN: 10}},
		PathMode:     "SP",
	}
	withBlock := base
	withBlock.Dynamics = &scenario.DynamicsSpec{}
	plain, err := RunScenariosContext(context.Background(), []ScenarioRun{{Spec: base, Seed: 9}}, sc, Options{Seed: 9, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	blocked, err := RunScenariosContext(context.Background(), []ScenarioRun{{Spec: withBlock, Seed: 9}}, sc, Options{Seed: 9, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	a, b := plain[0], blocked[0]
	if len(a.CoopMean) != len(b.CoopMean) {
		t.Fatalf("series lengths differ: %d vs %d", len(a.CoopMean), len(b.CoopMean))
	}
	for i := range a.CoopMean {
		if a.CoopMean[i] != b.CoopMean[i] {
			t.Errorf("CoopMean[%d]: %x (plain) vs %x (zero dynamics block)", i, a.CoopMean[i], b.CoopMean[i])
		}
	}
	if a.FinalCoop != b.FinalCoop {
		t.Errorf("FinalCoop: %+v vs %+v", a.FinalCoop, b.FinalCoop)
	}
}

// TestDynamicsFamiliesEndToEnd runs every churn-sweep and adversary-grid
// scenario at a tiny budget through the same path cmd/experiments uses and
// checks the reporting artifacts come out populated.
func TestDynamicsFamiliesEndToEnd(t *testing.T) {
	sc := Scale{Name: "tiny", Generations: 6, Rounds: 10, Repetitions: 1}
	for _, fam := range []string{"churn-sweep", "adversary-grid"} {
		f, err := scenario.FamilyByName(fam)
		if err != nil {
			t.Fatal(err)
		}
		var runs []ScenarioRun
		for _, spec := range f.Specs() {
			runs = append(runs, ScenarioRun{Spec: spec})
		}
		results, err := RunScenariosContext(context.Background(), runs, sc, Options{Seed: 3})
		if err != nil {
			t.Fatalf("%s: %v", fam, err)
		}
		if len(results) != len(runs) {
			t.Fatalf("%s: %d results for %d scenarios", fam, len(results), len(runs))
		}
		switch fam {
		case "churn-sweep":
			table := ChurnSweepTable(results)
			if table == nil {
				t.Fatal("nil churn sweep table")
			}
			churning := 0
			for _, res := range results {
				if res.Dynamics != nil && res.Dynamics.ChurnRate > 0 {
					churning++
					if res.Recovery == nil {
						t.Errorf("%s: churning scenario %q has no recovery summary", fam, res.Case.Name)
					} else if got := len(res.Recovery.Barriers); got != 1 {
						// 6 generations at interval 5 contain exactly one barrier.
						t.Errorf("%s: %q has %d barriers, want 1", fam, res.Case.Name, got)
					}
				}
			}
			if churning == 0 {
				t.Errorf("%s: no churning scenarios in the family", fam)
			}
		case "adversary-grid":
			table := AdversaryTable(results)
			if table == nil {
				t.Fatal("nil adversary table")
			}
			for _, res := range results {
				adv := res.Dynamics.AdversaryCount()
				if adv > 0 && res.FromByz.Total() == 0 {
					t.Errorf("%q seats %d adversaries but recorded no byzantine-sourced requests",
						res.Case.Name, adv)
				}
				if adv == 0 && res.FromByz.Total() != 0 {
					t.Errorf("control %q recorded byzantine requests", res.Case.Name)
				}
			}
		}
	}
}
