package main

import "testing"

// TestRunExitCodes pins battlint's exit-code contract: 0 clean, 2 on
// usage errors (an unknown analyzer or flag).
func TestRunExitCodes(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want int
	}{
		{"list", []string{"-list"}, 0},
		{"unknown analyzer", []string{"-run", "nosuch", "repro/internal/report"}, 2},
		{"unknown flag", []string{"-V=full"}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := run(tc.args); got != tc.want {
				t.Fatalf("run(%q) = %d, want %d", tc.args, got, tc.want)
			}
		})
	}
}

// TestRunCleanPackage loads and checks one small real package with
// every analyzer; it has no findings, so the exit code is 0.
func TestRunCleanPackage(t *testing.T) {
	if got := run([]string{"repro/internal/report"}); got != 0 {
		t.Fatalf("run(repro/internal/report) = %d, want 0", got)
	}
}
