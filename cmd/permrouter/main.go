// Command permrouter is the cluster front end: one address that looks like a
// single permserver but fans out over a member set — writes go to the
// current-epoch primary, reads load-balance across healthy least-lagged
// replicas, and idempotent reads are transparently retried across a
// failover.
//
//	permrouter -addr :5440 -members 127.0.0.1:5433,127.0.0.1:5434,127.0.0.1:5435
//
// The router also runs the cluster's coordinator: it probes every member on
// -probe, and when the primary goes unseen for -lease it promotes the
// most-caught-up replica at a bumped fencing epoch and re-points the other
// members at it. A deposed primary that returns is demoted (and re-seeded if
// its timeline diverged) automatically.
//
// With -metrics-addr the router exposes its routing counters, the
// coordinator's epoch/promotion series and pprof over HTTP.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"perm/internal/cluster"
	"perm/internal/logx"
	"perm/internal/metrics"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:5440", "listen address for routed client connections")
		members     = flag.String("members", "", "comma-separated cluster member addresses (required)")
		probe       = flag.Duration("probe", 500*time.Millisecond, "member health-probe interval")
		lease       = flag.Duration("lease", 3*time.Second, "primary lease: unseen this long, failover is declared")
		dialTO      = flag.Duration("dial-timeout", 2*time.Second, "backend connect + probe timeout")
		metricsAddr = flag.String("metrics-addr", "", "serve Prometheus metrics and pprof on this address; empty disables")
		logFormat   = flag.String("log-format", "text", "log output format: text | json")
		logLevel    = flag.String("log-level", "info", "minimum log level: debug | info | warn | error")
	)
	flag.Parse()
	minLevel, err := logx.ParseLevel(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	logger := logx.New(os.Stderr, *logFormat, minLevel, "permrouter")

	var memberList []string
	for _, m := range strings.Split(*members, ",") {
		if m = strings.TrimSpace(m); m != "" {
			memberList = append(memberList, m)
		}
	}
	if len(memberList) == 0 {
		logger.Error("-members is required (comma-separated host:port list)")
		os.Exit(1)
	}

	coord := cluster.NewCoordinator(cluster.CoordinatorConfig{
		Members:       memberList,
		ProbeInterval: *probe,
		LeaseTimeout:  *lease,
		DialTimeout:   *dialTO,
		Log:           logger,
	})
	go coord.Run()

	router := cluster.NewRouter(cluster.RouterConfig{
		Topology:    coord,
		DialTimeout: *dialTO,
		Log:         logger,
	})

	if *metricsAddr != "" {
		msrv := &http.Server{Addr: *metricsAddr, Handler: metrics.Default.Handler()}
		go func() {
			if err := msrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				logger.Error("metrics listener failed", "err", err)
			}
		}()
		defer msrv.Close()
		logger.Info("metrics and pprof", "url", "http://"+*metricsAddr+"/metrics")
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	serveErr := make(chan error, 1)
	go func() { serveErr <- router.ListenAndServe(*addr) }()
	logger.Info("routing", "addr", *addr, "members", len(memberList), "probe", *probe, "lease", *lease)

	exitCode := 0
	select {
	case err := <-serveErr:
		logger.Error("serve failed", "err", err)
		exitCode = 1
	case s := <-sig:
		logger.Info("closing", "signal", s.String())
	}
	router.Close()
	coord.Stop()
	logger.Info("goodbye")
	os.Exit(exitCode)
}
