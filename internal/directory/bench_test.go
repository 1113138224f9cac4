package directory

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/transport"
	"repro/internal/wal"
)

// BenchmarkDirectoryTCP measures one directory server's capacity over
// loopback TCP: 16 parallel callers issue one method against a registry
// of 1,024 devices, in memory and on a group-committed write-ahead log
// (syddirectory with and without -data-dir). ns/op is the server's
// time per request at that concurrency, so 1e9/ns-per-op is its
// throughput. EXPERIMENTS.md D1 holds the fleet's busiest minute
// (BenchmarkDirectoryPeak in internal/scale) against it:
//
//	go test -run '^$' -bench DirectoryTCP -benchtime 20000x ./internal/directory
func BenchmarkDirectoryTCP(b *testing.B) {
	const devices = 1024
	for _, store := range []string{"mem", "wal"} {
		for _, method := range []string{"Heartbeat", "ResolveService", "RegisterService"} {
			b.Run(store+"/"+method, func(b *testing.B) {
				srv := NewServer()
				if store == "wal" {
					dur, err := wal.Open(b.TempDir(), wal.Options{Sync: wal.SyncGroup})
					if err != nil {
						b.Fatal(err)
					}
					defer dur.Close()
					if srv, err = NewServerOn(dur.DB); err != nil {
						b.Fatal(err)
					}
				}
				net := transport.NewTCP()
				defer net.Close()
				ln, err := net.Listen("127.0.0.1:0", srv.Handler())
				if err != nil {
					b.Fatal(err)
				}
				defer ln.Close()
				c := NewClient(net, ln.Addr())
				ctx := context.Background()
				for i := 0; i < devices; i++ {
					u := fmt.Sprintf("u%04d", i)
					if err := c.RegisterUser(ctx, u, "node-"+u, 1); err != nil {
						b.Fatal(err)
					}
					if err := c.RegisterService(ctx, "cal."+u, u, "node-"+u, []string{"GetFreeSlots"}); err != nil {
						b.Fatal(err)
					}
				}
				call := map[string]func(u string) error{
					"Heartbeat": func(u string) error { return c.Heartbeat(ctx, u) },
					"ResolveService": func(u string) error {
						_, err := c.ResolveService(ctx, "cal."+u)
						return err
					},
					"RegisterService": func(u string) error {
						return c.RegisterService(ctx, "cal."+u, u, "node-"+u, []string{"GetFreeSlots"})
					},
				}[method]
				var next atomic.Int64
				b.SetParallelism(max(1, 16/runtime.GOMAXPROCS(0)))
				b.ReportAllocs()
				b.ResetTimer()
				b.RunParallel(func(pb *testing.PB) {
					for pb.Next() {
						if err := call(fmt.Sprintf("u%04d", next.Add(1)%devices)); err != nil {
							b.Error(err)
							return
						}
					}
				})
			})
		}
	}
}
