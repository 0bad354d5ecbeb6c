package core

import (
	"testing"

	"igosim/internal/sim"
	"igosim/internal/tensor"
)

func TestSchemeFeaturesShape(t *testing.T) {
	f := SchemeFeatures(tensor.Dims{M: 1024, K: 256, N: 64})
	if len(f) != 6 {
		t.Fatalf("feature vector has %d entries", len(f))
	}
	// log2(1024)=10, log2(256)=8, log2(64)=6; products are sums of logs.
	if f[0] != 10 || f[1] != 8 || f[2] != 6 || f[3] != 18 || f[4] != 14 || f[5] != 16 {
		t.Fatalf("features = %v", f)
	}
}

func TestTrainSchemeSelectorPredicts(t *testing.T) {
	// Layers with a dominant M prefer weight-sharing; dominant N prefers
	// dY-sharing; dominant K prefers ifmap-sharing. A KNN trained on such
	// labels must recover the pattern.
	var samples []SchemeSample
	for i := 1; i <= 6; i++ {
		samples = append(samples,
			SchemeSample{Dims: tensor.Dims{M: 1024 * i, K: 64, N: 64}, Best: WeightSharing},
			SchemeSample{Dims: tensor.Dims{M: 64, K: 64, N: 1024 * i}, Best: DYSharing},
			SchemeSample{Dims: tensor.Dims{M: 64, K: 1024 * i, N: 64}, Best: IfmapSharing},
		)
	}
	sel, err := TrainSchemeSelector(samples, DefaultSchemeK)
	if err != nil {
		t.Fatal(err)
	}
	if got := sel.Predict(tensor.Dims{M: 3000, K: 60, N: 70}); got != WeightSharing {
		t.Fatalf("M-heavy: %v", got)
	}
	if got := sel.Predict(tensor.Dims{M: 70, K: 60, N: 3000}); got != DYSharing {
		t.Fatalf("N-heavy: %v", got)
	}
	if got := sel.Predict(tensor.Dims{M: 60, K: 3000, N: 70}); got != IfmapSharing {
		t.Fatalf("K-heavy: %v", got)
	}
}

func TestRunPartitionedSchemeDegenerate(t *testing.T) {
	cfg := tinyCfg()
	// K too small to split: ifmap-sharing degenerates to whole-layer run.
	p := LayerParams(tensor.Dims{M: 64, K: 8, N: 32}, 1, cfg)
	out := RunPartitionedScheme(cfg, sim.Options{}, p, IfmapSharing, 4)
	whole := RunBackward(cfg, sim.Options{}, p, PolRearrange, false)
	if out.Cycles != whole.Cycles {
		t.Fatalf("degenerate plan %d cycles, whole layer %d", out.Cycles, whole.Cycles)
	}
}
