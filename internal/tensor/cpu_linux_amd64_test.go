package tensor

import (
	"os"
	"slices"
	"strings"
	"testing"
)

// TestCPUAVX2MatchesCPUInfo holds the CPUID/XGETBV checks to the
// kernel's own: Linux lists avx2 and fma in /proc/cpuinfo only when the
// CPU has them and the kernel saves the YMM state. Reporting one where
// it is absent would run the AVX2 kernels here and internal/ir's tile
// kernel into SIGILL; missing it would silently train and serve from the
// portable loops.
func TestCPUAVX2MatchesCPUInfo(t *testing.T) {
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo: %v", err)
	}
	var flags []string
	for _, line := range strings.Split(string(info), "\n") {
		if key, val, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(key) == "flags" {
			flags = strings.Fields(val)
			break
		}
	}
	if flags == nil {
		t.Skip("/proc/cpuinfo has no flags line")
	}
	want := slices.Contains(flags, "avx2")
	if got := cpuAVX2(); got != want {
		t.Fatalf("cpuAVX2() = %v, /proc/cpuinfo lists avx2: %v", got, want)
	}
	if useAVX2 != want {
		t.Fatalf("useAVX2 = %v at init, /proc/cpuinfo lists avx2: %v", useAVX2, want)
	}
	wantFMA := want && slices.Contains(flags, "fma")
	if got := cpuFMA(); got != wantFMA || hasFMA != wantFMA {
		t.Fatalf("cpuFMA() = %v, hasFMA = %v at init, /proc/cpuinfo lists avx2 and fma: %v", got, hasFMA, wantFMA)
	}
}
