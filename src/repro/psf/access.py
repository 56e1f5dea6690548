"""Credential-driven view selection (paper §3.2).

"One of the goals of PSF is to enable flexible access control to the
functionality provided by components.  Depending on their credentials,
users should be allowed to remotely access the components, run
components on their local machine, or access the components as a
combination of both remote and local execution."

The three access levels map onto the three view kinds:

- remote access only            -> PROXY view (no local data),
- combined remote/local         -> PARTIAL view,
- full local execution          -> CUSTOMIZATION view.

An :class:`AccessPolicy` holds ordered rules mapping credentials to the
most capable view kind a user may receive; :func:`select_view` derives
the concrete view type for a component under that policy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, List, Optional, Tuple

from repro.errors import ViewError
from repro.psf.component import ComponentType
from repro.psf.view import ViewKind, derive_view

# Capability order: a kind may substitute for anything at or below it.
_CAPABILITY_ORDER = {
    ViewKind.PROXY: 0,          # remote access only
    ViewKind.PARTIAL: 1,        # mixed local/remote
    ViewKind.CUSTOMIZATION: 2,  # full local execution
}


@dataclass(frozen=True)
class Credentials:
    """A user's identity attributes, as presented to PSF."""

    user: str
    roles: FrozenSet[str] = frozenset()
    trusted_host: bool = False

    @classmethod
    def make(cls, user: str, roles: Iterable[str] = (), trusted_host: bool = False):
        return cls(user=user, roles=frozenset(roles), trusted_host=trusted_host)

    def has_role(self, role: str) -> bool:
        return role in self.roles


@dataclass(frozen=True)
class AccessRule:
    """Grant up to ``max_kind`` when the credentials match.

    A rule matches when the user holds ``required_role`` (or the rule
    has none) and, if ``require_trusted_host``, the client machine is
    trusted.
    """

    max_kind: ViewKind
    required_role: Optional[str] = None
    require_trusted_host: bool = False

    def matches(self, credentials: Credentials) -> bool:
        if self.required_role is not None and not credentials.has_role(
            self.required_role
        ):
            return False
        if self.require_trusted_host and not credentials.trusted_host:
            return False
        return True


class AccessPolicy:
    """Ordered rules; the most capable matching grant wins.

    With no matching rule the user gets nothing — PSF denies rather
    than defaulting to remote access, so policies must grant explicitly
    (a PROXY-for-everyone rule is one line).
    """

    def __init__(self, rules: Iterable[AccessRule] = ()) -> None:
        self.rules: List[AccessRule] = list(rules)

    @classmethod
    def default_open(cls) -> "AccessPolicy":
        """Everyone gets remote access; trusted hosts may run locally."""
        return cls(
            [
                AccessRule(ViewKind.PROXY),
                AccessRule(ViewKind.CUSTOMIZATION, require_trusted_host=True),
            ]
        )

    def allowed_kind(self, credentials: Credentials) -> Optional[ViewKind]:
        """The most capable view kind these credentials may receive."""
        best: Optional[ViewKind] = None
        for rule in self.rules:
            if not rule.matches(credentials):
                continue
            if best is None or _CAPABILITY_ORDER[rule.max_kind] > _CAPABILITY_ORDER[best]:
                best = rule.max_kind
        return best

    def permits(self, credentials: Credentials, kind: ViewKind) -> bool:
        best = self.allowed_kind(credentials)
        return best is not None and (
            _CAPABILITY_ORDER[kind] <= _CAPABILITY_ORDER[best]
        )


def select_view(
    component: ComponentType,
    credentials: Credentials,
    policy: AccessPolicy,
    partial_shape: Optional[Tuple[Iterable[str], Iterable[str]]] = None,
) -> ComponentType:
    """Derive the most capable view of ``component`` the user may hold.

    ``partial_shape`` supplies the (functions, variables) subsets used
    when the grant tops out at PARTIAL; by default a PARTIAL view keeps
    all functions but no local variables beyond the first (a thin mixed
    view).  Raises :class:`ViewError` when the policy denies access.
    """
    kind = policy.allowed_kind(credentials)
    if kind is None:
        raise ViewError(
            f"access denied: no policy rule grants {credentials.user!r} "
            f"a view of {component.name}"
        )
    name = f"{component.name}.{kind.value}.for.{credentials.user}"
    if kind is ViewKind.PARTIAL:
        if partial_shape is not None:
            functions, variables = partial_shape
        else:
            functions = sorted(component.functions)
            variables = sorted(component.variables)[:1]
        return derive_view(
            component, kind, name=name, functions=functions, variables=variables
        )
    return derive_view(component, kind, name=name)
