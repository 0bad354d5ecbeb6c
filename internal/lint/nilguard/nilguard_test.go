package nilguard_test

import (
	"testing"

	"igosim/internal/lint/analysistest"
	"igosim/internal/lint/nilguard"
)

func TestNilguard(t *testing.T) {
	analysistest.Run(t, "testdata", nilguard.Analyzer,
		"igosim/internal/trace", // Sink/Track checked by package path
		"nilguardtest",          // //lint:sink marker
	)
}
