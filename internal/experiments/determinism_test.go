// determinism_test.go pins the acceptance criterion of the parallel trial
// engine: experiment tables must be byte-identical for one worker and for
// GOMAXPROCS workers.
package experiments

import (
	"bytes"
	"runtime"
	"testing"
)

// renderWith runs the generator with the given worker count and returns the
// rendered table bytes.
func renderWith(t *testing.T, gen Generator, workers int) []byte {
	t.Helper()
	cfg := Config{Quick: true, Seeds: 2, BaseSeed: 11, Workers: workers}
	var buf bytes.Buffer
	gen(cfg).Render(&buf)
	return buf.Bytes()
}

// TestTablesWorkerCountIndependent renders a representative slice of the
// experiment registry — the measureSafeSet-based headline experiments, the
// internal-protocol module experiments, the harness-based detection
// experiments, an events-reading recovery experiment, the Ensemble-plus-
// follow-up T13, an ablation, and the sppd cache table — sequentially and
// in parallel, and requires byte identity. The parallel worker count is at least 4 even on a
// single-CPU host: goroutine interleaving still exercises out-of-order
// completion, which is what the aggregation must be robust to.
func TestTablesWorkerCountIndependent(t *testing.T) {
	parallel := runtime.GOMAXPROCS(0)
	if parallel < 4 {
		parallel = 4
	}
	for _, id := range []string{"T1", "T3", "T5", "T6", "T7", "T9", "T13", "T14", "A2", "T-ring", "S4"} {
		gen := Lookup(id)
		if gen == nil {
			t.Fatalf("experiment %s missing from registry", id)
		}
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			seq := renderWith(t, gen, 1)
			par := renderWith(t, gen, parallel)
			if !bytes.Equal(seq, par) {
				t.Fatalf("table %s differs between workers=1 and workers=%d:\n--- sequential ---\n%s\n--- parallel ---\n%s",
					id, parallel, seq, par)
			}
		})
	}
}
