package main

import (
	"strings"
	"testing"

	"github.com/explore-by-example/aide/internal/bench"
)

// TestReportErrRejectsLostIdentity pins that the -json pass fails on a
// determinism break, not only on a warning: a report with one row
// reading identical: false is refused with that kernel named, and an
// all-identical report without a warning is accepted.
func TestReportErrRejectsLostIdentity(t *testing.T) {
	rows := func(identical ...bool) []bench.HotpathResult {
		names := []string{"cart_train", "grid_scan", "kmeans_hierarchy"}
		out := make([]bench.HotpathResult, len(identical))
		for i, id := range identical {
			out[i] = bench.HotpathResult{Name: names[i], Identical: id}
		}
		return out
	}
	if err := reportErr(&bench.HotpathReport{Results: rows(true, true, true)}); err != nil {
		t.Fatalf("all-identical report refused: %v", err)
	}
	err := reportErr(&bench.HotpathReport{Results: rows(true, false, true)})
	if err == nil || !strings.Contains(err.Error(), "grid_scan") || strings.Contains(err.Error(), "cart_train") {
		t.Fatalf("one lost kernel: err = %v, want one naming grid_scan only", err)
	}
	err = reportErr(&bench.HotpathReport{Results: rows(false, true, true), Warning: "GOMAXPROCS 1 < workers 4"})
	if err == nil || !strings.Contains(err.Error(), "cart_train") || !strings.Contains(err.Error(), "warning") {
		t.Fatalf("lost kernel plus warning: err = %v, want both named", err)
	}
}
