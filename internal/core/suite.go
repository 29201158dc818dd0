package core

import (
	"fmt"

	"fedsz/internal/lossy"

	// The built-in compressor families self-register with the lossy
	// registry from their init functions; importing them here
	// guarantees every pipeline binary links the full Table I suite
	// plus the sparsifying/quantizing/predictor families.
	_ "fedsz/internal/family"
	_ "fedsz/internal/sz2"
	_ "fedsz/internal/sz3"
	_ "fedsz/internal/szx"
	_ "fedsz/internal/zfp"
)

// Lossy compressor names registered by the built-in suite.
const (
	LossySZ2         = "sz2"
	LossySZ3         = "sz3"
	LossySZx         = "szx"
	LossySZxArtifact = "szx-artifact"
	LossyZFP         = "zfp"
)

// LossyByName constructs the EBLC registered under name — built-in or
// plugged in through lossy.RegisterFamily. "szx-artifact" selects the
// paper-artifact SZx mode (see package szx).
func LossyByName(name string) (lossy.Compressor, error) {
	c, err := lossy.New(name)
	if err != nil {
		return nil, fmt.Errorf("core: unknown lossy compressor %q", name)
	}
	return c, nil
}
