package baseline

import (
	"testing"
	"time"

	"lcrs/internal/edgesim"
)

func TestLCRSReportFields(t *testing.T) {
	st := edgesim.SessionStats{
		N:         10,
		ModelLoad: 100 * time.Millisecond,
		AvgTotal:  30 * time.Millisecond,
		AvgComm:   15 * time.Millisecond,
	}
	st.AvgCompute = 12 * time.Millisecond
	rep := LCRSReport(st, 12345)
	if rep.Approach != "lcrs" {
		t.Fatalf("approach = %s", rep.Approach)
	}
	if rep.ClientModelBytes != 12345 {
		t.Fatalf("client bytes = %d", rep.ClientModelBytes)
	}
	if rep.ModelLoad != st.ModelLoad {
		t.Fatalf("model load = %v", rep.ModelLoad)
	}
	// PerSampleComm strips the amortized load share out of AvgComm.
	wantComm := st.AvgComm - st.ModelLoad/10
	if rep.PerSampleComm != wantComm {
		t.Fatalf("per-sample comm = %v, want %v", rep.PerSampleComm, wantComm)
	}
	if rep.AvgTotal != st.AvgTotal || rep.AvgComm != st.AvgComm {
		t.Fatal("session averages must pass through")
	}
}

func TestReportFinishAmortization(t *testing.T) {
	rep := Report{
		ModelLoad:        100 * time.Millisecond,
		PerSampleCompute: 10 * time.Millisecond,
		PerSampleComm:    5 * time.Millisecond,
	}
	cold := rep.finish(1)
	if cold.AvgTotal != 115*time.Millisecond {
		t.Fatalf("cold AvgTotal = %v", cold.AvgTotal)
	}
	if cold.AvgComm != 105*time.Millisecond {
		t.Fatalf("cold AvgComm = %v", cold.AvgComm)
	}
	warm := rep.finish(100)
	if warm.AvgTotal != 16*time.Millisecond {
		t.Fatalf("warm AvgTotal = %v", warm.AvgTotal)
	}
}
