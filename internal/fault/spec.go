package fault

import (
	"fmt"
	"strconv"
	"strings"
)

// ParseSpec parses the -fault-spec dev-flag grammar into rules:
//
//	spec := rule (';' rule)*
//	rule := site '=' mode (':' opt)*
//	mode := 'error' | 'corrupt'
//	opt  := 'after=' N | 'times=' N | 'seed=' N | 'msg=' text
//
// Example:
//
//	store.wal.append=error:after=50:times=30:msg=no space left on device;cluster.pull.body=corrupt:times=8:seed=7
//
// times defaults to 0 (persistent); use times=1 for error-once. msg
// consumes the remainder of its rule, so it must be the last option.
func ParseSpec(spec string) ([]Rule, error) {
	var rules []Rule
	for _, raw := range strings.Split(spec, ";") {
		raw = strings.TrimSpace(raw)
		if raw == "" {
			continue
		}
		site, rest, ok := strings.Cut(raw, "=")
		site = strings.TrimSpace(site)
		if !ok || site == "" {
			return nil, fmt.Errorf("fault spec %q: want site=mode[:opts]", raw)
		}
		parts := strings.Split(rest, ":")
		rule := Rule{Site: site}
		switch strings.TrimSpace(parts[0]) {
		case "error":
			rule.Mode = ModeError
		case "corrupt":
			rule.Mode = ModeCorrupt
		default:
			return nil, fmt.Errorf("fault spec %q: unknown mode %q", raw, parts[0])
		}
		for i := 1; i < len(parts); i++ {
			key, val, ok := strings.Cut(parts[i], "=")
			if !ok {
				return nil, fmt.Errorf("fault spec %q: bad option %q", raw, parts[i])
			}
			key = strings.TrimSpace(key)
			var err error
			switch key {
			case "after":
				rule.After, err = strconv.Atoi(val)
			case "times":
				rule.Times, err = strconv.Atoi(val)
			case "seed":
				rule.Seed, err = strconv.ParseUint(val, 10, 64)
			case "msg":
				// msg swallows the rest of the rule, colons included.
				rule.Msg = strings.Join(append([]string{val}, parts[i+1:]...), ":")
				i = len(parts)
			default:
				return nil, fmt.Errorf("fault spec %q: unknown option %q", raw, key)
			}
			if err != nil {
				return nil, fmt.Errorf("fault spec %q: option %q: %v", raw, key, err)
			}
		}
		if rule.After < 0 || rule.Times < 0 {
			return nil, fmt.Errorf("fault spec %q: after/times must be >= 0", raw)
		}
		rules = append(rules, rule)
	}
	return rules, nil
}
