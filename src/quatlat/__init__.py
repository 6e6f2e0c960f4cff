"""Exact arithmetic for a quaternionic lattice acting on a product of trees,
with certificates for the numerical invariants of the associated fake quadric.

The interface is the `quatlat` command (`quatlat.cli`); the package
re-exports no names, so each lives at one import path, its module's.  The
one import below makes `import quatlat` load the value layers, so that
`quatlat.rational`, `quatlat.tree` and the rest are attributes of the
package without an import of their own.
"""

from . import embeddings, places, quaternion, rational, tree
