package backend

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"path/filepath"
	"testing"

	"gnnavigator/internal/model"
)

// trainingDigest runs cfg to completion and returns an FNV-64a digest of
// the IEEE bits of the final parameters (read back from the final
// checkpoint) followed by the per-epoch validation accuracy history.
func trainingDigest(t *testing.T, cfg Config) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "final.ckpt")
	perf, err := RunWith(cfg, Options{EvalBatch: 512, CheckpointPath: path})
	if err != nil {
		t.Fatal(err)
	}
	ck, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	var buf [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	for _, p := range ck.Params {
		for _, v := range p {
			put(v)
		}
	}
	for _, a := range perf.AccuracyHistory {
		put(a)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestTrainingDigestPinned pins the bits of a short training run per
// architecture, dropout on. Kernel rewrites, backward-pass pruning and
// any other "pure speed" change must leave every parameter and every
// epoch's accuracy bitwise unchanged; a deliberate numeric change must
// re-pin these values and say why.
func TestTrainingDigestPinned(t *testing.T) {
	want := map[model.Kind]string{
		model.GCN:  "9b71619b63895a94",
		model.SAGE: "2009501b9207ebdc",
		model.GAT:  "d9c65dbf613dc6c2",
	}
	for _, kind := range []model.Kind{model.GCN, model.SAGE, model.GAT} {
		t.Run(string(kind), func(t *testing.T) {
			cfg := fastCfg()
			cfg.Model = kind
			cfg.Dropout = 0.3
			if kind == model.GAT {
				cfg.Heads = 2
			}
			if got := trainingDigest(t, cfg); got != want[kind] {
				t.Errorf("training digest = %s, want %s", got, want[kind])
			}
		})
	}
}
