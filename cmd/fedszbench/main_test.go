package main

import (
	"io"
	"testing"
)

// recordingExps is a registry whose one experiment, "x", records that
// it ran.
func recordingExps(ran *bool) map[string]Runner {
	return map[string]Runner{"x": func(Options) (*Table, error) {
		*ran = true
		return &Table{ID: "x", Header: []string{"A"}, Rows: [][]string{{"1"}}}, nil
	}}
}

// TestUnknownFormat: an unknown -format fails before any experiment
// starts; the known ones run it.
func TestUnknownFormat(t *testing.T) {
	for _, tc := range []struct {
		format string
		ok     bool
	}{{"bogus", false}, {"json", false}, {"text", true}, {"csv", true}} {
		ran := false
		err := run([]string{"-exp", "x", "-format", tc.format}, io.Discard, recordingExps(&ran))
		if (err == nil) != tc.ok {
			t.Errorf("-format %s: err = %v, want ok=%v", tc.format, err, tc.ok)
		}
		if ran != tc.ok {
			t.Errorf("-format %s: experiment ran = %v, want %v", tc.format, ran, tc.ok)
		}
	}
}

// TestUnknownExperiment: an unknown -exp fails before anything runs.
func TestUnknownExperiment(t *testing.T) {
	ran := false
	if err := run([]string{"-exp", "table99"}, io.Discard, recordingExps(&ran)); err == nil || ran {
		t.Fatalf("-exp table99: err = %v, ran = %v; want an error and nothing run", err, ran)
	}
}
