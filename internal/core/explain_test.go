package core

import (
	"strings"
	"testing"

	"clusterbft/internal/cluster"
)

func TestExplainHonestRun(t *testing.T) {
	h := newHarness(t, 16, 3, DefaultConfig())
	if _, err := h.Ctrl.Run(weatherScript); err != nil {
		t.Fatal(err)
	}
	out := h.Ctrl.Explain()
	for _, want := range []string{"sub-graphs:", "verified at", "[final]", "replica 0", "job "} {
		if !strings.Contains(out, want) {
			t.Errorf("explain output missing %q:\n%s", want, out)
		}
	}
}

func TestExplainShowsDeviants(t *testing.T) {
	h := newHarness(t, 16, 3, DefaultConfig())
	if err := h.Cluster.SetAdversary("node-003", cluster.FaultCommission, 1.0, 11); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Ctrl.Run(weatherScript); err != nil {
		t.Fatal(err)
	}
	if out := h.Ctrl.Explain(); !strings.Contains(out, "DEVIANT") {
		t.Errorf("explain should flag the deviant replica:\n%s", out)
	}
}

func TestExplainBeforeRun(t *testing.T) {
	h := newHarness(t, 4, 2, DefaultConfig())
	if out := h.Ctrl.Explain(); !strings.Contains(out, "no run") {
		t.Errorf("explain before run = %q", out)
	}
}

func TestExplainShowsOptimisticSources(t *testing.T) {
	h := newHarness(t, 16, 3, DefaultConfig())
	if _, err := h.Ctrl.Run(weatherScript); err != nil {
		t.Fatal(err)
	}
	out := h.Ctrl.Explain()
	if !strings.Contains(out, "reads from: c0 (replica") {
		t.Errorf("explain missing source info:\n%s", out)
	}
}
