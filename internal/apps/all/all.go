// Package all assembles the registry of bundled workloads. It lives apart
// from package apps so the workload subpackages can depend on the App
// abstraction without an import cycle.
package all

import (
	"fmt"
	"sort"

	"github.com/fastfit/fastfit/internal/apps"
	"github.com/fastfit/fastfit/internal/apps/ft"
	"github.com/fastfit/fastfit/internal/apps/is"
	"github.com/fastfit/fastfit/internal/apps/lu"
	"github.com/fastfit/fastfit/internal/apps/mg"
	"github.com/fastfit/fastfit/internal/apps/minimd"
)

// Registry returns the bundled workloads keyed by name.
func Registry() map[string]apps.App {
	reg := map[string]apps.App{}
	for _, a := range []apps.App{is.New(), ft.New(), mg.New(), lu.New(), minimd.New()} {
		reg[a.Name()] = a
	}
	return reg
}

// Names returns the registered workload names in sorted order.
func Names() []string {
	reg := Registry()
	names := make([]string, 0, len(reg))
	for n := range reg {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Lookup returns the named workload or an error listing the valid names.
func Lookup(name string) (apps.App, error) {
	if a, ok := Registry()[name]; ok {
		return a, nil
	}
	return nil, fmt.Errorf("unknown app %q (have %v)", name, Names())
}
