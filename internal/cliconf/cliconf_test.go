package cliconf

import (
	"errors"
	"flag"
	"io"
	"strings"
	"testing"

	"github.com/fastfit/fastfit/internal/apps"
)

// build parses args as the shared campaign flags and resolves them.
func build(t *testing.T, args ...string) (apps.Config, error) {
	t.Helper()
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	c := Register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	_, cfg, _, err := c.Build()
	return cfg, err
}

func TestBuild(t *testing.T) {
	if cfg, err := build(t, "-app", "mg", "-ranks", "32"); err != nil || cfg.Scale != 64 || cfg.Ranks != 32 {
		t.Errorf("-app mg -ranks 32 = %+v, %v; want scale 64 at 32 ranks", cfg, err)
	}
	if cfg, err := build(t, "-app", "mg", "-ranks", "16", "-scale", "64", "-iters", "2"); err != nil || cfg.Scale != 64 || cfg.Iters != 2 {
		t.Errorf("-app mg -ranks 16 -scale 64 -iters 2 = %+v, %v", cfg, err)
	}
	if cfg, err := build(t, "-app", "lu"); err != nil || cfg != (apps.Config{Ranks: 16, Scale: 64, Iters: 5, Seed: 141421}) {
		t.Errorf("-app lu = %+v, %v; want lu's DefaultConfig", cfg, err)
	}
	if _, err := build(t, "-app", "mg", "-ranks", "32", "-scale", "32"); !errors.Is(err, apps.ErrRefused) || !strings.Contains(err.Error(), "mg") {
		t.Errorf("-app mg -ranks 32 -scale 32: %v, want mg's refusal", err)
	}
	if _, err := build(t, "-app", "is", "-iters", "-1"); !errors.Is(err, apps.ErrRefused) {
		t.Errorf("-app is -iters -1: %v, want a refusal", err)
	}
	if _, err := build(t, "-policy", "bogus"); err == nil || !strings.Contains(err.Error(), `"bogus"`) {
		t.Errorf("-policy bogus: %v, want an error naming the policy", err)
	}
	if _, err := build(t, "-app", "nope"); err == nil {
		t.Error("-app nope: want an error")
	}
}

// TestExplicit: a campaign flag on the command line makes the campaign
// explicit; a command's own flag does not.
func TestExplicit(t *testing.T) {
	for _, c := range []struct {
		args []string
		want bool
	}{{nil, false}, {[]string{"-store", "d"}, false}, {[]string{"-scale", "64"}, true}, {[]string{"-no-ml"}, true}} {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		camp := Register(fs)
		fs.String("store", "", "")
		if err := fs.Parse(c.args); err != nil {
			t.Fatal(err)
		}
		if got := camp.Explicit(fs); got != c.want {
			t.Errorf("Explicit(%q) = %v, want %v", c.args, got, c.want)
		}
	}
}
