import numpy as np


def grid_from_array(uniform_array, axes):
    """``uniform_grid`` of a test double: its own ``uniform_array`` on the
    ij meshgrid of ``axes``."""
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    return uniform_array(mesh.reshape(-1, len(axes))).reshape(mesh.shape[:-1])


class FixedField:
    """Test double for LabelField: uniforms from an explicit map or rule."""

    def __init__(self, values=None, rule=None, default=0.5):
        self.values = dict(values or {})
        self.rule = rule
        self.default = default
        self.seed = -1

    def uniform_at(self, site_or_id):
        key = tuple(site_or_id) if not isinstance(site_or_id, int) else site_or_id
        if key in self.values:
            return self.values[key]
        if self.rule is not None:
            return self.rule(key)
        return self.default

    def uniform_array(self, coords):
        coords = np.asarray(coords)
        return np.array([self.uniform_at(tuple(int(c) for c in row)) for row in coords])

    def uniform_grid(self, axes, out=None):  # the buffers ``out`` go unused
        return grid_from_array(self.uniform_array, axes)
