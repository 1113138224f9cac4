//go:build !race

package calendar

const RaceEnabled = false
