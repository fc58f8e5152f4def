package durableio_test

import (
	"testing"

	"chime/internal/analysis/analysistest"
	"chime/internal/analysis/durableio"
)

func TestDurableIO(t *testing.T) {
	analysistest.Run(t, "testdata", durableio.Analyzer,
		"chime/internal/simpkg", "chime/internal/hostprobe",
		"chime/internal/dmsim", "chime/internal/hostmem",
		"chime/internal/folio", "chime/cmd/dump")
}
