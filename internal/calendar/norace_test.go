//go:build !race

package calendar_test

const raceEnabled = false
