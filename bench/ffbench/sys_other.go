//go:build !linux

package main

import (
	"errors"
	"time"
)

// The benchmark's CPU and memory figures come from getrusage with Linux's
// units and its I/O labels from statfs; elsewhere it builds but refuses to
// measure.

type usage struct {
	cpu      time.Duration
	maxRSSMB float64
}

func processUsage() (usage, error) {
	return usage{}, errors.New("ffbench measures with Linux getrusage; unsupported on this OS")
}

func fsType(string) string { return "unknown" }

func loadAverage1() float64 { return -1 }
