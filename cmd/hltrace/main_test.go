package main

import (
	"bytes"
	"os"
	"testing"
)

// The default invocation's narration is pinned byte for byte: the timeline
// is the NIC trace rendered through TraceEvent.Info, so any drift in event
// order, timing or detail text shows here. testdata/seed1.golden was written
// by `hltrace -seed 1` before trace details became lazily rendered.
func TestSeed1Golden(t *testing.T) {
	want, err := os.ReadFile("testdata/seed1.golden")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := run(&got, 256, true, 1); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("hltrace -seed 1 output changed:\n--- got\n%s\n--- want\n%s", got.Bytes(), want)
	}
}
