//go:build !race

package links_test

const raceEnabled = false
