package yamllite

import "fmt"

// AsMap asserts v to a mapping.
func AsMap(v Value) (map[string]Value, bool) {
	m, ok := v.(map[string]Value)
	return m, ok
}

// AsList asserts v to a sequence.
func AsList(v Value) ([]Value, bool) {
	l, ok := v.([]Value)
	return l, ok
}

// AsString asserts v to a string.
func AsString(v Value) (string, bool) {
	s, ok := v.(string)
	return s, ok
}

// AsInt asserts v to an integer.
func AsInt(v Value) (int64, bool) {
	n, ok := v.(int64)
	return n, ok
}

// Get descends a chain of mapping keys, reporting whether every step
// existed.
func Get(v Value, path ...string) (Value, bool) {
	cur := v
	for _, key := range path {
		m, ok := AsMap(cur)
		if !ok {
			return nil, false
		}
		next, ok := m[key]
		if !ok {
			return nil, false
		}
		cur = next
	}
	return cur, true
}

// StringAt returns the string at a mapping path, with a descriptive error.
func StringAt(v Value, path ...string) (string, error) {
	got, ok := Get(v, path...)
	if !ok {
		return "", fmt.Errorf("yamllite: missing %v", path)
	}
	s, ok := AsString(got)
	if !ok {
		return "", fmt.Errorf("yamllite: %v is %T, want string", path, got)
	}
	return s, nil
}

// IntListAt returns a list of integers at a mapping path; a single integer
// is accepted as a one-element list. A missing path yields an empty list.
func IntListAt(v Value, path ...string) ([]int, error) {
	got, ok := Get(v, path...)
	if !ok || got == nil {
		return nil, nil
	}
	if n, ok := AsInt(got); ok {
		return []int{int(n)}, nil
	}
	l, ok := AsList(got)
	if !ok {
		return nil, fmt.Errorf("yamllite: %v is %T, want integer list", path, got)
	}
	out := make([]int, 0, len(l))
	for i, item := range l {
		n, ok := AsInt(item)
		if !ok {
			return nil, fmt.Errorf("yamllite: %v[%d] is %T, want integer", path, i, item)
		}
		out = append(out, int(n))
	}
	return out, nil
}

// StringListAt returns a list of strings at a mapping path; a single string
// is accepted as a one-element list. A missing path yields an empty list.
func StringListAt(v Value, path ...string) ([]string, error) {
	got, ok := Get(v, path...)
	if !ok || got == nil {
		return nil, nil
	}
	if s, ok := AsString(got); ok {
		return []string{s}, nil
	}
	l, ok := AsList(got)
	if !ok {
		return nil, fmt.Errorf("yamllite: %v is %T, want string list", path, got)
	}
	out := make([]string, 0, len(l))
	for i, item := range l {
		s, ok := AsString(item)
		if !ok {
			return nil, fmt.Errorf("yamllite: %v[%d] is %T, want string", path, i, item)
		}
		out = append(out, s)
	}
	return out, nil
}

// StringMapAt returns a map[string]string at a mapping path. A missing path
// yields an empty map.
func StringMapAt(v Value, path ...string) (map[string]string, error) {
	got, ok := Get(v, path...)
	if !ok || got == nil {
		return map[string]string{}, nil
	}
	m, ok := AsMap(got)
	if !ok {
		return nil, fmt.Errorf("yamllite: %v is %T, want mapping", path, got)
	}
	out := make(map[string]string, len(m))
	for k, item := range m {
		s, ok := AsString(item)
		if !ok {
			return nil, fmt.Errorf("yamllite: %v.%s is %T, want string", path, k, item)
		}
		out[k] = s
	}
	return out, nil
}
