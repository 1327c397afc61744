package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/markov"
)

// TestLossParallelMatchesSequential checks Loss on chains around
// compileThreshold, where engine compilation switches from one worker
// to a fan-out over GOMAXPROCS, against the sequential reference scan.
func TestLossParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(301))
	for _, n := range []int{compileThreshold - 1, compileThreshold, compileThreshold + 9} {
		c, err := markov.UniformRandom(rng, n)
		if err != nil {
			t.Fatal(err)
		}
		diffLoss(t, c, fmt.Sprintf("n=%d", n))
	}
}

func TestLossParallelNilAndZero(t *testing.T) {
	var qt *Quantifier
	if r := qt.Loss(1); r.Log != 0 || r.RowQ != -1 {
		t.Errorf("nil quantifier: %+v", r)
	}
	q := NewQuantifier(markov.ModerateExample())
	if r := q.Loss(0); r.Log != 0 {
		t.Errorf("alpha=0: %+v", r)
	}
}

// TestLossParallelDeterministicAcrossRuns recompiles a chain above
// compileThreshold on every run: the fanned-out compile must give the
// same result each time.
func TestLossParallelDeterministicAcrossRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(302))
	c, err := markov.UniformRandom(rng, compileThreshold+9)
	if err != nil {
		t.Fatal(err)
	}
	first := NewQuantifier(c).Loss(2)
	for i := 0; i < 10; i++ {
		again := NewQuantifier(c).Loss(2)
		if again != first {
			t.Fatalf("run %d: nondeterministic result %+v vs %+v", i, again, first)
		}
	}
}

func TestBetterTieBreak(t *testing.T) {
	cur := LossResult{Log: 1, RowQ: 3, RowD: 5}
	if !better(1, 2, 9, &cur) {
		t.Error("smaller RowQ should win ties")
	}
	if better(1, 3, 6, &cur) {
		t.Error("larger RowD should lose ties")
	}
	if !better(1, 3, 4, &cur) {
		t.Error("smaller RowD should win ties at equal RowQ")
	}
	if better(0.5, 0, 0, &cur) {
		t.Error("smaller loss should lose")
	}
	if !better(2, 9, 9, &cur) {
		t.Error("larger loss should win")
	}
	empty := LossResult{RowQ: -1, RowD: -1}
	if !better(0.5, 7, 8, &empty) {
		t.Error("any positive loss should beat the empty result")
	}
	if better(0, 0, 1, &empty) {
		t.Error("zero loss should not install a pair")
	}
}
