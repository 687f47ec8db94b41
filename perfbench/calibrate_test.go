package main

import "testing"

// The probe's work is a fixed function of its size.
func TestCalibrationWorkIsDeterministic(t *testing.T) {
	a, b := calibrationWork(3000), calibrationWork(3000)
	if a != b || a < 1000 || a > 1001 {
		t.Fatalf("two probes of 3000 integers gave %d and %d, want 1000 or 1001", a, b)
	}
}
