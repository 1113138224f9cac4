// Package e2e_test builds the actual cmd/ binaries and drives a small
// deployment over real TCP sockets — the closest thing to the paper's
// iPAQ-on-WLAN testbed this repository can run.
package e2e_test

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/directory"
	"repro/internal/replication"
	"repro/internal/transport"
	"repro/internal/wire"
)

// buildBinaries compiles the three deployment binaries once per test
// run into a temp dir.
func buildBinaries(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	for _, name := range []string{"syddirectory", "sydnode", "sydcal"} {
		out := filepath.Join(dir, name)
		cmd := exec.Command("go", "build", "-o", out, "./cmd/"+name)
		cmd.Dir = repoRoot(t)
		if b, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", name, err, b)
		}
	}
	return dir
}

func repoRoot(t *testing.T) string {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	// internal/e2e -> repo root.
	return filepath.Dir(filepath.Dir(wd))
}

// freePort asks the kernel for an available TCP port.
func freePort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// start launches a binary and registers cleanup.
func start(t *testing.T, bin string, args ...string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(bin, args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &out
	if err := cmd.Start(); err != nil {
		t.Fatalf("start %s: %v", bin, err)
	}
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		_, _ = cmd.Process.Wait()
		if t.Failed() {
			t.Logf("%s output:\n%s", filepath.Base(bin), out.String())
		}
	})
	return cmd
}

// waitTCP blocks until addr accepts connections.
func waitTCP(t *testing.T, addr string) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		c, err := net.DialTimeout("tcp", addr, 200*time.Millisecond)
		if err == nil {
			c.Close()
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s never came up", addr)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// run executes a CLI command and returns its output.
func run(t *testing.T, bin string, args ...string) string {
	t.Helper()
	cmd := exec.Command(bin, args...)
	b, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", filepath.Base(bin), args, err, b)
	}
	return string(b)
}

func TestBinariesEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and spawns real processes")
	}
	bins := buildBinaries(t)
	dirBin := filepath.Join(bins, "syddirectory")
	nodeBin := filepath.Join(bins, "sydnode")
	calBin := filepath.Join(bins, "sydcal")

	dirAddr := freePort(t)
	start(t, dirBin, "-addr", dirAddr, "-data-dir", filepath.Join(t.TempDir(), "dir"))
	waitTCP(t, dirAddr)

	philAddr := freePort(t)
	andyAddr := freePort(t)
	start(t, nodeBin, "-user", "phil", "-dir", dirAddr, "-addr", philAddr, "-priority", "2")
	start(t, nodeBin, "-user", "andy", "-dir", dirAddr, "-addr", andyAddr)
	waitTCP(t, philAddr)
	waitTCP(t, andyAddr)

	// Give the nodes a moment to publish their services.
	deadline := time.Now().Add(15 * time.Second)
	for {
		out := run(t, calBin, "-dir", dirAddr, "users")
		if strings.Contains(out, "phil") && strings.Contains(out, "andy") {
			if !strings.Contains(out, "online") {
				t.Fatalf("users not online:\n%s", out)
			}
			if !strings.Contains(out, "prio=2") {
				t.Fatalf("priority lost:\n%s", out)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("nodes never registered:\n%s", out)
		}
		time.Sleep(100 * time.Millisecond)
	}

	// Free slots through the CLI.
	out := run(t, calBin, "-dir", dirAddr, "free", "-user", "phil", "-from", "2003-04-21", "-to", "2003-04-21")
	if lines := strings.Count(strings.TrimSpace(out), "\n") + 1; lines != 9 {
		t.Fatalf("free slots = %d lines:\n%s", lines, out)
	}

	// Slot info.
	out = run(t, calBin, "-dir", dirAddr, "slots", "-user", "andy", "-day", "2003-04-21", "-hour", "14")
	if !strings.Contains(out, "free") {
		t.Fatalf("slot info:\n%s", out)
	}

	// Meetings list starts empty.
	out = run(t, calBin, "-dir", dirAddr, "meetings", "-user", "phil")
	if strings.TrimSpace(out) != "" {
		t.Fatalf("unexpected meetings:\n%s", out)
	}

	// Full meeting lifecycle through the CLI: schedule, observe on
	// both devices, cancel (as the initiator), observe the release.
	out = run(t, calBin, "-dir", dirAddr, "schedule",
		"-user", "phil", "-title", "standup",
		"-from", "2003-04-21", "-to", "2003-04-21", "-must", "andy")
	if !strings.Contains(out, "confirmed") {
		t.Fatalf("schedule:\n%s", out)
	}
	fields := strings.Fields(out)
	if len(fields) < 2 {
		t.Fatalf("schedule output shape:\n%s", out)
	}
	meetingID := fields[1]

	for _, u := range []string{"phil", "andy"} {
		out = run(t, calBin, "-dir", dirAddr, "meetings", "-user", u)
		if !strings.Contains(out, meetingID) || !strings.Contains(out, "confirmed") {
			t.Fatalf("%s meetings after schedule:\n%s", u, out)
		}
	}
	out = run(t, calBin, "-dir", dirAddr, "free", "-user", "andy", "-from", "2003-04-21", "-to", "2003-04-21")
	if lines := strings.Count(strings.TrimSpace(out), "\n") + 1; lines != 8 {
		t.Fatalf("andy free slots after schedule = %d lines:\n%s", lines, out)
	}

	// A random caller cannot cancel; the initiator can.
	cmd := exec.Command(calBin, "-dir", dirAddr, "cancel", "-user", "phil", "-as", "mallory", "-id", meetingID)
	if b, err := cmd.CombinedOutput(); err == nil {
		t.Fatalf("mallory cancelled the meeting:\n%s", b)
	}
	out = run(t, calBin, "-dir", dirAddr, "cancel", "-user", "phil", "-as", "phil", "-id", meetingID)
	if !strings.Contains(out, "cancelled") {
		t.Fatalf("cancel:\n%s", out)
	}
	out = run(t, calBin, "-dir", dirAddr, "free", "-user", "andy", "-from", "2003-04-21", "-to", "2003-04-21")
	if lines := strings.Count(strings.TrimSpace(out), "\n") + 1; lines != 9 {
		t.Fatalf("andy free slots after cancel = %d lines:\n%s", lines, out)
	}
}

// sigkill ends a process the way a crash does: no handler runs, so
// nothing is saved that was not already on disk.
func sigkill(t *testing.T, cmd *exec.Cmd) {
	t.Helper()
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_, _ = cmd.Process.Wait()
}

// waitUsers polls `sydcal users` until its output contains every want.
func waitUsers(t *testing.T, calBin string, dirFlag []string, want ...string) string {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		out := run(t, calBin, append(dirFlag, "users")...)
		missing := ""
		for _, w := range want {
			if !strings.Contains(out, w) {
				missing = w
			}
		}
		if missing == "" {
			return out
		}
		if time.Now().After(deadline) {
			t.Fatalf("users never listed %q:\n%s", missing, out)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// TestNodeStatePersistsAcrossRestart: a meeting booked on a -data-dir
// node survives SIGKILL — the slot stays taken, the meeting is listed,
// and its links still work (cancelling it frees the other attendee).
func TestNodeStatePersistsAcrossRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and spawns real processes")
	}
	bins := buildBinaries(t)
	dirBin := filepath.Join(bins, "syddirectory")
	nodeBin := filepath.Join(bins, "sydnode")
	calBin := filepath.Join(bins, "sydcal")

	dirAddr := freePort(t)
	start(t, dirBin, "-addr", dirAddr, "-ttl", "1h")
	waitTCP(t, dirAddr)
	dirFlag := []string{"-dir", dirAddr}
	cal := func(args ...string) string { return run(t, calBin, append(dirFlag, args...)...) }

	dataDir := filepath.Join(t.TempDir(), "phil")
	philAddr, andyAddr := freePort(t), freePort(t)
	first := start(t, nodeBin, "-user", "phil", "-dir", dirAddr, "-addr", philAddr, "-data-dir", dataDir)
	start(t, nodeBin, "-user", "andy", "-dir", dirAddr, "-addr", andyAddr)
	waitUsers(t, calBin, dirFlag, philAddr, andyAddr)

	out := cal("schedule", "-user", "phil", "-title", "standup",
		"-from", "2003-04-21", "-to", "2003-04-21", "-must", "andy")
	if !strings.Contains(out, "confirmed") {
		t.Fatalf("schedule:\n%s", out)
	}
	meetingID := strings.Fields(out)[1]
	sigkill(t, first)

	// Second life, at a fresh port, over the same data dir.
	philAddr2 := freePort(t)
	start(t, nodeBin, "-user", "phil", "-dir", dirAddr, "-addr", philAddr2, "-data-dir", dataDir)
	waitUsers(t, calBin, dirFlag, philAddr2)
	out = cal("meetings", "-user", "phil")
	if !strings.Contains(out, meetingID) || !strings.Contains(out, "confirmed") {
		t.Fatalf("booked meeting lost across SIGKILL:\n%s", out)
	}
	out = cal("free", "-user", "phil", "-from", "2003-04-21", "-to", "2003-04-21")
	if lines := strings.Count(strings.TrimSpace(out), "\n") + 1; lines != 8 {
		t.Fatalf("phil free slots after restart = %d lines, want 8:\n%s", lines, out)
	}
	out = cal("cancel", "-user", "phil", "-as", "phil", "-id", meetingID)
	if !strings.Contains(out, "cancelled") {
		t.Fatalf("cancel after restart:\n%s", out)
	}
	out = cal("free", "-user", "andy", "-from", "2003-04-21", "-to", "2003-04-21")
	if lines := strings.Count(strings.TrimSpace(out), "\n") + 1; lines != 9 {
		t.Fatalf("andy free slots after cancel = %d lines, want 9:\n%s", lines, out)
	}
}

// TestFailoverAcrossProcesses: a replicated sydnode killed with SIGKILL
// is replaced by its -replica-of follower, whose own lease watch is the
// only thing that promotes it, and the meeting the primary acked is
// listed from the promoted follower within a bounded number of lease
// TTLs.
func TestFailoverAcrossProcesses(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and spawns real processes")
	}
	bins := buildBinaries(t)
	dirBin := filepath.Join(bins, "syddirectory")
	nodeBin := filepath.Join(bins, "sydnode")
	calBin := filepath.Join(bins, "sydcal")
	const leaseTTL = time.Second

	dirAddr := freePort(t)
	start(t, dirBin, "-addr", dirAddr, "-ttl", "1h")
	waitTCP(t, dirAddr)
	dirFlag := []string{"-dir", dirAddr}
	cal := func(args ...string) string { return run(t, calBin, append(dirFlag, args...)...) }

	philAddr, andyAddr, replicaAddr := freePort(t), freePort(t), freePort(t)
	primary := start(t, nodeBin, "-user", "phil", "-dir", dirAddr, "-addr", philAddr,
		"-data-dir", filepath.Join(t.TempDir(), "phil"), "-lease-ttl", leaseTTL.String(), "-replicas", replicaAddr)
	start(t, nodeBin, "-user", "andy", "-dir", dirAddr, "-addr", andyAddr)
	waitUsers(t, calBin, dirFlag, philAddr, andyAddr)
	start(t, nodeBin, "-replica-of", "phil", "-dir", dirAddr, "-addr", replicaAddr,
		"-data-dir", filepath.Join(t.TempDir(), "phil-r1"), "-lease-ttl", leaseTTL.String())
	waitTCP(t, replicaAddr)

	out := cal("schedule", "-user", "phil", "-title", "standup",
		"-from", "2003-04-21", "-to", "2003-04-21", "-must", "andy")
	if !strings.Contains(out, "confirmed") {
		t.Fatalf("schedule:\n%s", out)
	}
	meetingID := strings.Fields(out)[1]

	// Shipping is asynchronous: the kill waits until the follower has
	// applied the primary's whole log, so the meeting is acked on both.
	tcp := transport.NewTCP()
	t.Cleanup(func() { _ = tcp.Close() })
	status := func(addr string) replication.Status {
		t.Helper()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		resp, err := tcp.Call(ctx, addr, &transport.Request{Service: replication.ServiceFor("phil"), Method: "Status"})
		if err != nil || !resp.OK {
			t.Fatalf("replication status at %s: %+v, %v", addr, resp, err)
		}
		var st replication.Status
		if err := wire.Unmarshal(resp.Result, &st); err != nil {
			t.Fatal(err)
		}
		return st
	}
	tail := status(philAddr).ShippedLSN
	for deadline := time.Now().Add(15 * time.Second); status(replicaAddr).AppliedLSN < tail; {
		if time.Now().After(deadline) {
			t.Fatalf("follower never applied the primary's log up to LSN %d", tail)
		}
		time.Sleep(50 * time.Millisecond)
	}
	sigkill(t, primary)
	killed := time.Now()

	bound := 10 * leaseTTL
	for {
		b, err := exec.Command(calBin, append(dirFlag, "meetings", "-user", "phil")...).CombinedOutput()
		if err == nil && strings.Contains(string(b), meetingID) {
			if !strings.Contains(string(b), "confirmed") {
				t.Fatalf("meeting on the promoted follower:\n%s", b)
			}
			break
		}
		if time.Since(killed) > bound {
			t.Fatalf("phil's meeting not served %v (%d lease TTLs) after the primary died; last answer: %v\n%s",
				bound, bound/leaseTTL, err, b)
		}
		time.Sleep(100 * time.Millisecond)
	}
	t.Logf("promoted follower served the meeting %v after SIGKILL", time.Since(killed).Round(10*time.Millisecond))
	out = waitUsers(t, calBin, dirFlag, replicaAddr)
	if strings.Contains(out, philAddr) {
		t.Fatalf("directory still lists the dead primary:\n%s", out)
	}
}

// TestDirectoryStatePersistsAcrossRestart: a directory killed with
// SIGKILL and restarted on the same -data-dir still has every user,
// service, group and lease it acknowledged, and a lease
// granted before the kill still fences a rival after it.
func TestDirectoryStatePersistsAcrossRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and spawns real processes")
	}
	bins := buildBinaries(t)
	// One directory server: the subtest keeps the name it had beside
	// the deleted four-shard arm.
	t.Run("shards1", func(t *testing.T) {
		testDirectoryRestart(t, bins)
	})
}

func testDirectoryRestart(t *testing.T, bins string) {
	dirBin := filepath.Join(bins, "syddirectory")
	nodeBin := filepath.Join(bins, "sydnode")
	calBin := filepath.Join(bins, "sydcal")
	dataDir := filepath.Join(t.TempDir(), "dir")
	tcp := transport.NewTCP()
	t.Cleanup(func() { _ = tcp.Close() })
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	t.Cleanup(cancel)

	// boot starts one life of the directory at fresh ports.
	boot := func() (*exec.Cmd, []string, *directory.Client) {
		addr := freePort(t)
		cmd := start(t, dirBin, "-addr", addr, "-data-dir", dataDir, "-ttl", "1h")
		waitTCP(t, addr)
		return cmd, []string{"-dir", addr}, directory.NewClient(tcp, addr)
	}

	// First life: a real node registers itself and its services; the
	// rest of the registry is written through a directory client.
	first, dirFlag, c := boot()
	nodeAddr := freePort(t)
	node := start(t, nodeBin, append([]string{"-user", "phil", "-addr", nodeAddr}, dirFlag...)...)
	waitUsers(t, calBin, dirFlag, nodeAddr)
	users := []string{"phil"}
	for i := 0; i < 8; i++ {
		u := fmt.Sprintf("u%02d", i)
		users = append(users, u)
		if err := c.RegisterUser(ctx, u, "node-"+u, i); err != nil {
			t.Fatal(err)
		}
		if err := c.RegisterService(ctx, "cal."+u, u, "node-"+u, []string{"A", "B"}); err != nil {
			t.Fatal(err)
		}
		if _, err := c.RenewLease(ctx, u, "holder-"+u, time.Hour, []string{"replica-" + u}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.CreateGroup(ctx, "team", users); err != nil {
		t.Fatal(err)
	}
	philServices, err := c.ServicesOf(ctx, "phil")
	if err != nil || len(philServices) < 3 {
		t.Fatalf("phil's services before the kill = %v, %v", philServices, err)
	}
	// The node dies first so that its heartbeats cannot re-register
	// anything with the second life: what that life lists, it recovered.
	sigkill(t, node)
	sigkill(t, first)

	_, dirFlag2, c2 := boot()
	out := run(t, calBin, append(dirFlag2, "users")...)
	for _, u := range users {
		if !strings.Contains(out, u+" ") {
			t.Fatalf("user %s lost across SIGKILL:\n%s", u, out)
		}
	}
	if !strings.Contains(out, nodeAddr) {
		t.Fatalf("phil's address lost across SIGKILL:\n%s", out)
	}
	got, err := c2.ServicesOf(ctx, "phil")
	if err != nil || strings.Join(got, ",") != strings.Join(philServices, ",") {
		t.Fatalf("phil's services after restart = %v, %v; before: %v", got, err, philServices)
	}
	for i, u := range users[1:] {
		info, err := c2.LookupUser(ctx, u)
		if err != nil || info.Priority != i || info.Addr != "node-"+u {
			t.Fatalf("user %s after restart = %+v, %v", u, info, err)
		}
		svc, err := c2.LookupService(ctx, "cal."+u)
		if err != nil || svc.Addr != "node-"+u || len(svc.Methods) != 2 {
			t.Fatalf("service cal.%s after restart = %+v, %v", u, svc, err)
		}
		if _, err := c2.RenewLease(ctx, u, "rival", time.Hour, nil); wire.CodeOf(err) != wire.CodeConflict {
			t.Fatalf("rival took %s's lease after the directory restart: err = %v", u, err)
		}
		if _, err := c2.RenewLease(ctx, u, "holder-"+u, time.Hour, nil); err != nil {
			t.Fatalf("holder of %s's lease cannot renew after restart: %v", u, err)
		}
		if lease, err := c2.GetLease(ctx, u); err != nil || len(lease.Replicas) != 1 || lease.Replicas[0] != "replica-"+u {
			t.Fatalf("lease on %s after restart = %+v, %v", u, lease, err)
		}
	}
	if lease, err := c2.GetLease(ctx, "phil"); wire.CodeOf(err) != wire.CodeNoService {
		t.Fatalf("lease on phil after restart = %+v, %v; none was granted", lease, err)
	}
	members, err := c2.GroupMembers(ctx, "team")
	if err != nil || len(members) != len(users) {
		t.Fatalf("group after restart = %v, %v", members, err)
	}
}
