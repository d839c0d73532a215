// Package model describes the application side of a Calculon analysis: the
// structure of a transformer-based LLM in the Megatron framing of §2.1 of
// the paper. A model is defined by its hidden size, attention-head count,
// sequence length, number of transformer blocks, and the global training
// batch size. Everything else (parameter counts, FLOPs per token, layer
// shapes) derives from these.
package model

import (
	"fmt"

	"calculon/internal/units"
)

// LLM is the application specification given to the performance model.
type LLM struct {
	// Name identifies the configuration in reports, e.g. "gpt3-175B".
	Name string `json:"name"`
	// Hidden is the embedding / hidden dimension h.
	Hidden int `json:"hidden"`
	// FeedForward is the MLP inner dimension; 0 means the conventional 4·h.
	FeedForward int `json:"feedforward,omitempty"`
	// AttnHeads is the number of attention heads a; Hidden must divide by it.
	AttnHeads int `json:"attn_heads"`
	// Seq is the training sequence length s.
	Seq int `json:"seq"`
	// Blocks is the number of transformer blocks L.
	Blocks int `json:"blocks"`
	// Batch is the global (mini-)batch size in samples.
	Batch int `json:"batch"`
	// VocabSize is used only for the optional embedding/unembedding layers
	// and the classic parameter-count cross-check; 0 disables them.
	VocabSize int `json:"vocab,omitempty"`
}

// FF returns the MLP inner dimension, defaulting to 4·Hidden.
func (m LLM) FF() int {
	if m.FeedForward > 0 {
		return m.FeedForward
	}
	return 4 * m.Hidden
}

// HeadSize returns Hidden / AttnHeads.
func (m LLM) HeadSize() int { return m.Hidden / m.AttnHeads }

// Validate checks the structural constraints on the LLM definition.
func (m LLM) Validate() error {
	switch {
	case m.Hidden <= 0:
		return fmt.Errorf("model %s: hidden must be positive, got %d", m.Name, m.Hidden)
	case m.AttnHeads <= 0:
		return fmt.Errorf("model %s: attn_heads must be positive, got %d", m.Name, m.AttnHeads)
	case m.Hidden%m.AttnHeads != 0:
		return fmt.Errorf("model %s: hidden %d not divisible by attn_heads %d", m.Name, m.Hidden, m.AttnHeads)
	case m.Seq <= 0:
		return fmt.Errorf("model %s: seq must be positive, got %d", m.Name, m.Seq)
	case m.Blocks <= 0:
		return fmt.Errorf("model %s: blocks must be positive, got %d", m.Name, m.Blocks)
	case m.Batch <= 0:
		return fmt.Errorf("model %s: batch must be positive, got %d", m.Name, m.Batch)
	case m.FeedForward < 0:
		return fmt.Errorf("model %s: feedforward must be non-negative, got %d", m.Name, m.FeedForward)
	case m.VocabSize < 0:
		return fmt.Errorf("model %s: vocab must be non-negative, got %d", m.Name, m.VocabSize)
	}
	return nil
}

// BlockParams returns the number of weight parameters in one transformer
// block: QKV projection (3h²+3h), attention output projection (h²+h), the
// two MLP matrices (h·ff+ff and ff·h+h), and the two LayerNorms (2h each).
func (m LLM) BlockParams() int64 {
	h, ff := int64(m.Hidden), int64(m.FF())
	attn := 3*h*h + 3*h + h*h + h
	mlp := h*ff + ff + ff*h + h
	norms := int64(4 * m.Hidden)
	return attn + mlp + norms
}

// Params returns the total parameter count: all blocks plus (when VocabSize
// is set) the token embedding and final LayerNorm. The unembedding shares
// the embedding matrix as in GPT-2/3.
func (m LLM) Params() int64 {
	p := m.BlockParams() * int64(m.Blocks)
	if m.VocabSize > 0 {
		p += int64(m.VocabSize)*int64(m.Hidden) + int64(m.Seq)*int64(m.Hidden) + 2*int64(m.Hidden)
	}
	return p
}

// FwdFLOPsPerToken estimates the forward-pass FLOPs for one token of one
// sample across all blocks: 2 FLOPs per multiply-accumulate in the GEMMs
// (≈ 2·params for the dense part) plus the 2·2·s·h attention-matrix terms.
func (m LLM) FwdFLOPsPerToken() units.FLOPs {
	h, s, ff := float64(m.Hidden), float64(m.Seq), float64(m.FF())
	dense := 2 * (4*h*h + 2*h*ff) // QKV+proj, MLP up+down
	attnMat := 4 * s * h          // QKᵀ and AV, 2·s·h each
	return units.FLOPs(float64(m.Blocks) * (dense + attnMat))
}

func (m LLM) String() string {
	return fmt.Sprintf("%s{h=%d a=%d s=%d L=%d batch=%d params=%s}",
		m.Name, m.Hidden, m.AttnHeads, m.Seq, m.Blocks, m.Batch, HumanParams(m.Params()))
}

// HumanParams formats a parameter count the way the literature does,
// e.g. 174_591_000_000 → "175B".
func HumanParams(p int64) string {
	f := float64(p)
	switch {
	case f >= 999.5e9:
		return trim(f/1e12) + "T"
	case f >= 999.5e6:
		return trim(f/1e9) + "B"
	case f >= 999.5e3:
		return trim(f/1e6) + "M"
	default:
		return fmt.Sprintf("%d", p)
	}
}

func trim(v float64) string {
	s := fmt.Sprintf("%.1f", v)
	if len(s) > 2 && s[len(s)-2:] == ".0" {
		s = s[:len(s)-2]
	}
	return s
}
