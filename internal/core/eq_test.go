package core

import (
	"bytes"
	"strings"
	"testing"
)

func TestEquations(t *testing.T) {
	// Eq. 1: L_rate = min{M, N}.
	if LRateBased(5, 16) != 5 || LRateBased(40, 16) != 16 || LRateBased(16, 16) != 16 {
		t.Fatal("eq1 wrong")
	}
	// Eq. 2: L_win = max{M/K, 1}.
	if LWinBased(5, 10) != 1 {
		t.Fatalf("eq2(5,10) = %v", LWinBased(5, 10))
	}
	if LWinBased(40, 10) != 4 {
		t.Fatalf("eq2(40,10) = %v", LWinBased(40, 10))
	}
	if LWinBased(10, 0) != 1 {
		t.Fatal("eq2 with k=0 should clamp to 1")
	}
}

func TestVisibilityMatchesEquationsInIdealCase(t *testing.T) {
	// M=8 drops, N=16 flows, K=10 packets per flow per RTT.
	r := VisibilityTable(16, 10, []int{8}, 4000, 1)[0]
	// Rate-based: 8 consecutive interleaved arrivals touch 8 distinct
	// flows (M < N): exact.
	if r.EmpiricalRate != 8 {
		t.Fatalf("empirical rate-based = %v, want exactly 8", r.EmpiricalRate)
	}
	// Window-based: 8 consecutive clumped arrivals touch 1 or 2 clumps;
	// expectation 1 + 7/10 = 1.7.
	if r.EmpiricalWin < 1.5 || r.EmpiricalWin > 1.9 {
		t.Fatalf("empirical window-based = %v, want ≈1.7", r.EmpiricalWin)
	}
	if r.AnalyticRate != 8 || r.AnalyticWin != 1 {
		t.Fatalf("analytic: %v, %v", r.AnalyticRate, r.AnalyticWin)
	}
	// The paper's point: L_rate ≫ L_win.
	if r.EmpiricalRate < 3*r.EmpiricalWin {
		t.Fatal("rate-based visibility not much larger")
	}
}

func TestVisibilityBigBurstSaturates(t *testing.T) {
	// Burst longer than everything: all flows see it both ways.
	r := VisibilityTable(8, 10, []int{1000}, 200, 2)[0]
	if r.EmpiricalRate != 8 || r.EmpiricalWin != 8 {
		t.Fatalf("saturated visibility: %v, %v", r.EmpiricalRate, r.EmpiricalWin)
	}
}

func TestVisibilityTableRows(t *testing.T) {
	rows := VisibilityTable(16, 10, []int{1, 4, 16, 64}, 500, 3)
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Monotone in M for both families.
	for i := 1; i < len(rows); i++ {
		if rows[i].EmpiricalRate < rows[i-1].EmpiricalRate ||
			rows[i].EmpiricalWin < rows[i-1].EmpiricalWin {
			t.Fatal("visibility not monotone in burst size")
		}
	}
	var buf bytes.Buffer
	if err := WriteVisibilityTable(&buf, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "eq1_rate") || len(strings.Split(buf.String(), "\n")) < 5 {
		t.Fatalf("table output:\n%s", buf.String())
	}
}

func TestVisibilityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	VisibilityTable(1, 1, []int{0}, 1, 1)
}

func TestECNModeString(t *testing.T) {
	if ModeDropTail.String() != "droptail" || ModeRedECN.String() != "red+ecn" ||
		ModePersistentECN.String() != "persistent-ecn" {
		t.Fatal("mode strings")
	}
	if ECNMode(9).String() != "mode(9)" {
		t.Fatal("unknown mode string")
	}
}
