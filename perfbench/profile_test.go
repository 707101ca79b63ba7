package main

import (
	"testing"
	"time"
)

var sink uint64

// spin burns CPU in package main for d. The loop keeps its state local,
// so even a race-instrumented build spends it in this function.
func spin(d time.Duration) {
	x := sink
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1e5; i++ {
			x = x*6364136223846793005 + uint64(i)
		}
	}
	sink = x
}

func TestCPUProfileAttributesLeafPackage(t *testing.T) {
	if testing.Short() {
		t.Skip("profiles for 300ms")
	}
	c := newCPUProfile()
	if err := c.start(); err != nil {
		t.Fatal(err)
	}
	spin(300 * time.Millisecond)
	if err := c.stop(); err != nil {
		t.Fatal(err)
	}
	if c.total == 0 {
		t.Fatal("no samples")
	}
	// Package main's symbols carry its import path in a test binary.
	if s := c.share("main") + c.share("obm/perfbench"); s < 0.5 {
		t.Errorf("share of the spinning package = %.2f, want most samples (by package: %v)", s, c.byPkg)
	}
}

func TestPackageOf(t *testing.T) {
	for in, want := range map[string]string{
		"obm/internal/noc.(*Network).Step":        "obm/internal/noc",
		"obm/internal/sim.RunReplicas[...].func1": "obm/internal/sim",
		"runtime.mallocgc":                        "runtime",
		"net/http.(*conn).serve":                  "net/http",
		"main.spin":                               "main",
	} {
		if got := packageOf(in); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestMalformedProfileIsAnError(t *testing.T) {
	if _, _, err := flatByPackage([]byte("not gzip")); err == nil {
		t.Error("accepted a non-gzip profile")
	}
	if err := fields([]byte{0x0a, 0x05, 0x01}, func(int, uint64, []byte) error { return nil }); err == nil {
		t.Error("accepted a truncated length-delimited field")
	}
}
