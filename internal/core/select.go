package core

import (
	"math"

	"igosim/internal/config"
	"igosim/internal/knn"
	"igosim/internal/schedule"
	"igosim/internal/sim"
	"igosim/internal/tensor"
)

// SchemeSample is one labelled layer for the partition-scheme selector.
type SchemeSample struct {
	Dims tensor.Dims
	Best Scheme
}

// SchemeFeatures maps a layer's GEMM dimensions to the KNN feature vector.
// The paper uses "the dimensions of dX, dW, and dY as features"; those six
// numbers are (M,K), (K,N) and (M,N), which the log-scaled triple (M,K,N)
// plus their pairwise products' logs span. Log scaling keeps the classifier
// sensitive to shape ratios rather than raw magnitudes.
func SchemeFeatures(d tensor.Dims) []float64 {
	lm, lk, ln := math.Log2(float64(d.M)), math.Log2(float64(d.K)), math.Log2(float64(d.N))
	return []float64{
		lm, lk, ln, // tensor extents
		lm + lk, // size of dX
		lk + ln, // size of dW
		lm + ln, // size of dY
	}
}

// DefaultSchemeK is the KNN neighbourhood size used by the selector.
const DefaultSchemeK = 3

// RunPartitionedScheme simulates one specific scheme with `parts`
// partitions: concurrently across cores on a multi-core configuration,
// sequentially on a single core. Plans that degenerate to one partition
// are simulated whole. Results are memoized per layer shape.
func RunPartitionedScheme(cfg config.NPU, opts sim.Options, p schedule.TileParams, scheme Scheme, parts int) LayerOutcome {
	key := layerKeyFor(cfg, p, memoPartitionScheme, opts)
	key.scheme, key.parts = scheme, parts
	return memoLayer(key, opts, func() LayerOutcome {
		return runPartitionedScheme(cfg, opts, p, scheme, parts)
	})
}

func runPartitionedScheme(cfg config.NPU, opts sim.Options, p schedule.TileParams, scheme Scheme, parts int) LayerOutcome {
	plan := PartitionLayer(p, scheme, parts)
	var out LayerOutcome
	switch {
	case cfg.Cores > 1:
		out = runPlan(cfg, opts, p, plan, tunedChoices(cfg, plan.Parts, PolRearrange, false), true, true)
	case len(plan.Parts) < 2:
		out = RunBackward(cfg, opts, p, PolRearrange, false)
	default:
		out = runPlan(cfg, opts, p, plan, tunedChoices(cfg, plan.Parts, PolRearrange, false), false, false)
	}
	out.Scheme = scheme
	out.Dims = p.Dims
	out.Policy = PolPartition
	return out
}

// TrainSchemeSelector fits the KNN partition-scheme selector on labelled
// layers.
func TrainSchemeSelector(samples []SchemeSample, k int) (*SchemeSelector, error) {
	train := make([]knn.Sample, len(samples))
	for i, s := range samples {
		train[i] = knn.Sample{Features: SchemeFeatures(s.Dims), Label: int(s.Best)}
	}
	cls, err := knn.Train(train, k)
	if err != nil {
		return nil, err
	}
	return &SchemeSelector{cls: cls}, nil
}

// SchemeSelector predicts a partitioning scheme from layer dimensions.
type SchemeSelector struct {
	cls *knn.Classifier
}

// Predict returns the scheme the selector picks for the given layer.
func (s *SchemeSelector) Predict(d tensor.Dims) Scheme {
	return Scheme(s.cls.Predict(SchemeFeatures(d)))
}
