package layers

import (
	"testing"

	"calculon/internal/model"
)

// TestBlockWeightBytesMatchesGraph pins the closed form used by the
// execution pre-screen to the layer graph it summarizes: for every preset
// and tensor-parallel degree, and regardless of the shard flags that must
// not matter, BlockWeightBytes equals Sum(Block(...)).WeightBytes bit for
// bit. If the layer graph ever gains or loses a weight-bearing layer, this
// fails and the closed form must be updated in the same change.
func TestBlockWeightBytesMatchesGraph(t *testing.T) {
	for _, name := range model.PresetNames() {
		m := model.MustPreset(name)
		for _, tp := range []int{1, 2, 4, 5, 8, 16, m.AttnHeads} {
			if tp > m.AttnHeads {
				continue
			}
			want := Sum(Block(m, Shard{TP: tp, Microbatch: 1})).WeightBytes
			if got := BlockWeightBytes(&m, tp); got != want {
				t.Errorf("%s tp=%d: closed form %v != graph sum %v", name, tp, got, want)
			}
			// Weight bytes must be invariant under everything but TP — the
			// property the pre-screen and the memo key both lean on.
			for _, sh := range []Shard{
				{TP: tp, Microbatch: 4},
				{TP: tp, Microbatch: 1, SeqParallel: true},
				{TP: tp, Microbatch: 1, SeqParallel: true, TPRedo: true},
				{TP: tp, Microbatch: 1, Fused: true},
				{TP: tp, Microbatch: 1, Inference: true},
			} {
				if got := Sum(Block(m, sh)).WeightBytes; got != want {
					t.Errorf("%s %+v: weight bytes %v vary with non-TP shard fields (want %v)",
						name, sh, got, want)
				}
			}
		}
	}
}
