// Package cli is the process spine the binaries in cmd/ share: one exit
// policy, one usage error, and for the two daemons one set of http.Server
// flags and one serve-and-drain loop.
package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// Main runs a binary: run gets the command-line arguments and stdout, and
// the process exits with ExitCode of what it returns. A failure is reported
// on stderr as "name: err".
func Main(name string, run func(args []string, out io.Writer) error) {
	err := run(os.Args[1:], os.Stdout)
	code := ExitCode(err)
	if code != 0 {
		fmt.Fprintln(os.Stderr, name+":", err)
	}
	os.Exit(code)
}

// ExitCode is the exit policy: 0 for success and for -h (flag.ErrHelp), 2
// for a usage error (Usagef, whose usage is already printed) and 1 for
// anything else.
func ExitCode(err error) int {
	var ue *usageError
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
		return 0
	case errors.As(err, &ue):
		return 2
	}
	return 1
}

// usageError marks a flag-validation failure: the flags parsed, but their
// values or their combination are invalid.
type usageError struct{ error }

// Usagef prints fs's usage and returns a usage error.
func Usagef(fs *flag.FlagSet, format string, args ...any) error {
	fs.Usage()
	return &usageError{fmt.Errorf(format, args...)}
}

// HTTPFlags are the http.Server limits and the graceful-shutdown drain
// budget a daemon takes on its command line.
type HTTPFlags struct {
	ReadTimeout, WriteTimeout, IdleTimeout, Drain time.Duration
}

// Register registers -read-timeout, -write-timeout, -idle-timeout and
// -drain on fs.
func (f *HTTPFlags) Register(fs *flag.FlagSet) {
	fs.DurationVar(&f.ReadTimeout, "read-timeout", 10*time.Second, "http.Server read timeout (0 = none)")
	fs.DurationVar(&f.WriteTimeout, "write-timeout", 30*time.Second, "http.Server write timeout (0 = none)")
	fs.DurationVar(&f.IdleTimeout, "idle-timeout", 2*time.Minute, "http.Server idle-connection timeout (0 = none)")
	fs.DurationVar(&f.Drain, "drain", 10*time.Second, "graceful-shutdown drain budget")
}

// Check returns a usage error for the first negative value.
func (f *HTTPFlags) Check(fs *flag.FlagSet) error {
	for _, d := range []struct {
		name string
		v    time.Duration
	}{
		{"-read-timeout", f.ReadTimeout}, {"-write-timeout", f.WriteTimeout},
		{"-idle-timeout", f.IdleTimeout}, {"-drain", f.Drain},
	} {
		if d.v < 0 {
			return Usagef(fs, "%s = %v, want ≥ 0", d.name, d.v)
		}
	}
	return nil
}

// Serve runs a daemon on ln until SIGINT or SIGTERM. start is called with a
// context the first signal cancels and returns the handler to serve. On that
// signal Serve restores default signal handling, so a second one kills the
// process, and lets in-flight requests drain for up to f.Drain. It reports
// both steps on out, each line prefixed "name: ", and closes ln.
func (f *HTTPFlags) Serve(name string, out io.Writer, ln net.Listener, start func(context.Context) (http.Handler, error)) error {
	defer ln.Close()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	h, err := start(ctx)
	if err != nil {
		return err
	}
	hs := &http.Server{
		Handler:      h,
		ReadTimeout:  f.ReadTimeout,
		WriteTimeout: f.WriteTimeout,
		IdleTimeout:  f.IdleTimeout,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	stop()
	fmt.Fprintf(out, "%s: signal received, draining for up to %v\n", name, f.Drain)
	sctx, cancel := context.WithTimeout(context.Background(), f.Drain)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	fmt.Fprintf(out, "%s: drained, bye\n", name)
	return nil
}
