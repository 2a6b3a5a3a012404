package eisr

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"github.com/routerplugins/eisr/internal/ipsec"
	"github.com/routerplugins/eisr/internal/pcu"
	"github.com/routerplugins/eisr/internal/plugins"
)

// ModuleFactory builds a plugin against a router's environment. Third
// parties extend the router by registering factories — the analog of
// shipping a loadable kernel module.
type ModuleFactory func(r *Router) pcu.Plugin

var (
	modulesMu sync.RWMutex
	modules   = map[string]ModuleFactory{}
)

// RegisterModule adds a loadable module to the global module directory.
// It panics on duplicate names (a programming error, as with
// database/sql drivers).
func RegisterModule(name string, f ModuleFactory) {
	modulesMu.Lock()
	defer modulesMu.Unlock()
	if _, dup := modules[name]; dup {
		panic(fmt.Sprintf("eisr: module %q registered twice", name))
	}
	modules[name] = f
}

// Modules lists the loadable module names.
func Modules() []string {
	modulesMu.RLock()
	defer modulesMu.RUnlock()
	out := make([]string, 0, len(modules))
	for name := range modules {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// LoadPlugin loads a module by name into this router — the modload
// analog. Names: "drr" and "eiffel" (one per-flow scheduling plugin
// over two disciplines), "hfsc", "red", "ipsec", "firewall", "stats",
// "tcpmon", "l4route", "options", "null-<gate>" for the empty plugins
// used in the overhead measurements, and "chaos-<gate>" for the
// fault-injection plugin exercising the isolation layer.
func (r *Router) LoadPlugin(name string) error {
	modulesMu.RLock()
	f, ok := modules[name]
	modulesMu.RUnlock()
	if !ok {
		// The null and chaos plugin families are parameterized by gate
		// type.
		if g, found := strings.CutPrefix(name, "null-"); found {
			if t := gateByName(g); t != pcu.TypeInvalid {
				return r.PCU.Load(plugins.NewNullPlugin(r.Env, t))
			}
		}
		if g, found := strings.CutPrefix(name, "chaos-"); found {
			if t := gateByName(g); t != pcu.TypeInvalid {
				return r.PCU.Load(plugins.NewChaosPlugin(r.Env, t))
			}
		}
		return fmt.Errorf("eisr: no module %q (have %v)", name, Modules())
	}
	return r.PCU.Load(f(r))
}

// UnloadPlugin unloads a plugin (fails while instances are live). The
// unload is bracketed by a draining mark so a create-instance racing
// the unload cannot land between the liveness check and the removal
// and leave an orphaned instance; a failed unload clears the mark.
func (r *Router) UnloadPlugin(name string) error {
	if err := r.PCU.BeginDrain(name); err != nil {
		return err
	}
	if err := r.PCU.Unload(name); err != nil {
		r.PCU.CancelDrain(name)
		return err
	}
	return nil
}

func gateByName(s string) pcu.Type {
	for _, t := range []pcu.Type{
		pcu.TypeOptions, pcu.TypeSecurity, pcu.TypeSched, pcu.TypeBMP,
		pcu.TypeRouting, pcu.TypeStats, pcu.TypeCongest, pcu.TypeFirewall,
		pcu.TypeMonitor,
	} {
		if t.String() == s {
			return t
		}
	}
	return pcu.TypeInvalid
}

func init() {
	RegisterModule("drr", func(r *Router) pcu.Plugin { return plugins.NewDRRPlugin(r.Env) })
	RegisterModule("eiffel", func(r *Router) pcu.Plugin { return plugins.NewEiffelPlugin(r.Env) })
	RegisterModule("hfsc", func(r *Router) pcu.Plugin { return plugins.NewHFSCPlugin(r.Env) })
	RegisterModule("red", func(r *Router) pcu.Plugin { return plugins.NewREDPlugin(r.Env) })
	RegisterModule("firewall", func(r *Router) pcu.Plugin { return plugins.NewFirewallPlugin(r.Env) })
	RegisterModule("stats", func(r *Router) pcu.Plugin { return plugins.NewStatsPlugin(r.Env) })
	RegisterModule("tcpmon", func(r *Router) pcu.Plugin { return plugins.NewTCPMonPlugin(r.Env) })
	RegisterModule("l4route", func(r *Router) pcu.Plugin { return plugins.NewRoutePlugin(r.Env) })
	RegisterModule("options", func(r *Router) pcu.Plugin { return plugins.NewOptionsPlugin(r.Env) })
	RegisterModule("ipsec", func(r *Router) pcu.Plugin { return ipsec.NewPlugin(r.AIU, r.Core) })
}
