package experiment

import (
	"context"
	"testing"

	"adhocga/internal/network"
)

func TestCSNSweepShape(t *testing.T) {
	sc := Scale{Name: "tiny", Generations: 2, Rounds: 10, Repetitions: 2}
	points, err := CSNSweepContext(context.Background(), []int{0, 10, 30}, network.ShorterPaths(), sc, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("%d points", len(points))
	}
	for i, want := range []int{0, 10, 30} {
		if points[i].CSN != want {
			t.Errorf("point %d CSN = %d, want %d", i, points[i].CSN, want)
		}
		if points[i].Cooperation.N != 2 {
			t.Errorf("point %d has %d reps", i, points[i].Cooperation.N)
		}
		if points[i].Cooperation.Mean < 0 || points[i].Cooperation.Mean > 1 {
			t.Errorf("point %d cooperation %v", i, points[i].Cooperation.Mean)
		}
	}
	csn, coop := SweepToSeries(points)
	if len(csn) != 3 || len(coop) != 3 || csn[2] != 30 {
		t.Errorf("series conversion wrong: %v %v", csn, coop)
	}
}

func TestCSNSweepValidatesRange(t *testing.T) {
	sc := Scale{Name: "tiny", Generations: 1, Rounds: 5, Repetitions: 1}
	if _, err := CSNSweepContext(context.Background(), []int{50}, network.ShorterPaths(), sc, Options{}); err == nil {
		t.Error("CSN=50 of 50 accepted")
	}
	if _, err := CSNSweepContext(context.Background(), []int{-1}, network.ShorterPaths(), sc, Options{}); err == nil {
		t.Error("negative CSN accepted")
	}
}

// The headline shape at meaningful scale: cooperation decreases
// monotonically in the selfish fraction (the paper's case 1 → case 2
// contrast, densified).
func TestCSNSweepMonotone(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	sc := Scale{Name: "sweep", Generations: 20, Rounds: 300, Repetitions: 1}
	points, err := CSNSweepContext(context.Background(), []int{0, 15, 30}, network.ShorterPaths(), sc, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(points); i++ {
		if points[i].Cooperation.Mean >= points[i-1].Cooperation.Mean {
			t.Errorf("cooperation not decreasing: CSN %d → %.3f, CSN %d → %.3f",
				points[i-1].CSN, points[i-1].Cooperation.Mean,
				points[i].CSN, points[i].Cooperation.Mean)
		}
	}
}
