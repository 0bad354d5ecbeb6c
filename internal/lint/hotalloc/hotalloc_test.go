package hotalloc_test

import (
	"testing"

	"igosim/internal/lint/analysistest"
	"igosim/internal/lint/hotalloc"
)

func TestHotalloc(t *testing.T) {
	analysistest.Run(t, "testdata", hotalloc.Analyzer,
		"hotalloctest",             // //lint:hotpath marker semantics
		"igosim/internal/sim",      // CompiledEngine/residency hot paths stay clean
		"igosim/internal/schedule", // Compiler.Intern stays clean
	)
}
