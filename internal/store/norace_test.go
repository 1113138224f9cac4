//go:build !race

package store

const raceEnabled = false
