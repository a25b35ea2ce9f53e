// Command stpbcastd serves broadcasts as a service: a keyed pool of
// warm sessions behind a JSON-over-HTTP control plane (see
// internal/daemon for the endpoints and wire types).
//
// Usage:
//
//	stpbcastd                                # 127.0.0.1:7411
//	stpbcastd -addr 127.0.0.1:0              # random port, printed on stdout
//	stpbcastd -max-inflight 32 -tenant-quota 8 -max-sessions 4 -idle-ttl 2m
//
// A bad flag value (a count below its minimum, a zero -idle-ttl, a
// non-positive -recv-timeout) is a usage error (exit 2) naming the flag;
// nothing is replaced by a default.
//
// The daemon prints "stpbcastd listening on http://ADDR" once the
// listener is up (scripts parse this to find a random port), drains
// gracefully on SIGINT/SIGTERM or POST /v1/shutdown — new requests get
// 503, in-flight ones finish, the pool closes — and then exits 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/daemon"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7411", "listen address (use :0 for a random port)")
	maxInFlight := flag.Int("max-inflight", 64, "max concurrently admitted broadcast requests (excess get 503)")
	tenantQuota := flag.Int("tenant-quota", 0, "max in-flight requests per tenant (0 = unlimited; excess get 429)")
	maxSessions := flag.Int("max-sessions", 8, "max warm sessions in the pool (LRU idle eviction at the cap)")
	idleTTL := flag.Duration("idle-ttl", 5*time.Minute, "evict sessions idle for this long (negative disables TTL eviction; 0 is an error)")
	recvTimeout := flag.Duration("recv-timeout", 30*time.Second, "default per-receive deadline T for requests that set none (a blocked wait expires within [T, 1.25 T))")
	flag.Parse()
	switch {
	case flag.NArg() > 0:
		usage("unexpected arguments %v", flag.Args())
	case *maxInFlight <= 0:
		usage("-max-inflight must be positive, got %d", *maxInFlight)
	case *tenantQuota < 0:
		usage("-tenant-quota must be non-negative (0 = unlimited), got %d", *tenantQuota)
	case *maxSessions <= 0:
		usage("-max-sessions must be positive, got %d", *maxSessions)
	case *idleTTL == 0:
		usage("-idle-ttl must be positive, or negative to disable TTL eviction, got 0")
	case *recvTimeout <= 0:
		usage("-recv-timeout must be positive, got %v", *recvTimeout)
	}

	srv := daemon.New(daemon.Options{
		Pool: daemon.PoolOptions{
			MaxSessions: *maxSessions,
			IdleTTL:     *idleTTL,
		},
		MaxInFlight:        *maxInFlight,
		TenantQuota:        *tenantQuota,
		DefaultRecvTimeout: *recvTimeout,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "stpbcastd:", err)
		os.Exit(1)
	}
	fmt.Printf("stpbcastd listening on http://%s\n", ln.Addr())

	hs := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case s := <-sig:
		fmt.Printf("stpbcastd: %v, draining\n", s)
		srv.Shutdown()
		<-srv.Done()
	case <-srv.Done():
		// Drain requested over the API (POST /v1/shutdown).
		fmt.Println("stpbcastd: drained via /v1/shutdown")
	case err := <-serveErr:
		fmt.Fprintln(os.Stderr, "stpbcastd:", err)
		srv.Close()
		os.Exit(1)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	hs.Shutdown(ctx)
	fmt.Println("stpbcastd: bye")
}

// usage reports a bad command line on stderr with the flag list and
// exits 2, before the daemon listens.
func usage(format string, a ...any) {
	fmt.Fprintf(os.Stderr, "stpbcastd: "+format+"\n", a...)
	flag.Usage()
	os.Exit(2)
}
