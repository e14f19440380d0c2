package server

import (
	"context"
	"errors"
	"net"
	"net/http"
	"time"
)

// DefaultDrainTimeout bounds how long Serve waits for in-flight requests
// after a shutdown signal before closing their connections.
const DefaultDrainTimeout = 10 * time.Second

// Connection deadlines. A client gets ReadHeaderTimeout to finish its
// request headers and an idle keep-alive connection is closed after
// IdleTimeout, so a peer that opens a connection and goes quiet cannot
// hold it forever. There is deliberately no whole-request ReadTimeout or
// WriteTimeout: a submission legitimately blocks while it waits in the
// admission queue and executes.
//
// MaxHeaderBytes bounds a request's line and headers together (net/http
// reads 4 KiB of slack beyond it); past it the request is answered 431 and
// its connection closed before any handler runs. A flow travels in the
// body, which has its own limit (maxBodyBytes), and the only header this
// server reads is a tenant name, so the limit is far below net/http's
// 1 MiB default.
const (
	ReadHeaderTimeout = 5 * time.Second
	IdleTimeout       = 2 * time.Minute
	MaxHeaderBytes    = 64 << 10
)

// Serve runs the server's handler on the listener until ctx is cancelled,
// then drains gracefully: the listener closes immediately (no new
// connections), in-flight requests get up to drainTimeout to finish, and
// only then are the remaining connections forcibly closed. A long
// dataflow execution therefore completes and its response is delivered
// even when the operator hits Ctrl-C mid-submit.
//
// ready, if non-nil, is closed once the listener is accepting — tests use
// it to avoid racing the startup. Serve returns nil after a clean drain,
// the shutdown error if the drain deadline expired, or the serve error if
// the listener failed before ctx was cancelled.
func (s *Server) Serve(ctx context.Context, ln net.Listener, drainTimeout time.Duration, ready chan<- struct{}) error {
	if drainTimeout <= 0 {
		drainTimeout = DefaultDrainTimeout
	}
	hs := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: ReadHeaderTimeout,
		IdleTimeout:       IdleTimeout,
		MaxHeaderBytes:    MaxHeaderBytes,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	if ready != nil {
		close(ready)
	}
	select {
	case err := <-errc:
		// The listener died on its own (port stolen, closed externally).
		return err
	case <-ctx.Done():
	}
	dctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	err := hs.Shutdown(dctx)
	// Serve always returns ErrServerClosed after Shutdown; drain it so the
	// goroutine never leaks.
	if serr := <-errc; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	// Every admission runs inside its request handler, so after a clean
	// HTTP drain the pipeline holds nothing. Only when the HTTP deadline
	// cut Shutdown off do handlers still run passes; wait for those before
	// flushing observers so the final books and event logs are
	// quiescent. The pipeline drain gets its own deadline: the
	// HTTP drain may have consumed (or exhausted) dctx, and an
	// already-expired context would cut the pipeline off before it
	// finished work the HTTP drain just waited for.
	pctx, pcancel := context.WithTimeout(context.Background(), drainTimeout)
	if derr := s.pipe.Drain(pctx); derr != nil && err == nil {
		err = derr
	}
	pcancel()
	// In-flight requests are done (or cut off): flush observers now so
	// traces and event logs capture everything the drain allowed to finish.
	s.runShutdownHooks()
	return err
}

// ListenAndServe listens on addr and calls Serve. It exists for the
// command wrapper; tests prefer Serve with their own listener.
func (s *Server) ListenAndServe(ctx context.Context, addr string, drainTimeout time.Duration) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ctx, ln, drainTimeout, nil)
}
