"""The Maxoid manifest (paper section 6.1).

An app ships an optional Maxoid manifest (an XML file in the real system)
declaring:

1. **Private directories on external storage** — paths under ``EXTDIR``
   that belong to the app's private state even though they live on the
   public SD card (the Dropbox use case, section 4.2). Other apps keep
   seeing those paths as ordinary public directories.
2. **Private-intent filters** — a whitelist or blacklist of intent filters
   deciding, without code changes, which of the app's outgoing intents
   invoke the target *as a delegate* (section 6.1, initiator API 2.2).
"""

from __future__ import annotations

import xml.etree.ElementTree as ElementTree
from dataclasses import dataclass, field
from typing import List

from repro.android.intents import Intent, IntentFilter
from repro.kernel import path as vpath


@dataclass
class MaxoidManifest:
    """Per-app Maxoid policy declarations.

    ``private_ext_dirs`` are EXTDIR-relative paths (e.g. ``"data/A"``).
    ``private_filters`` with ``filter_mode="whitelist"`` means intents
    matching any filter invoke delegates; ``"blacklist"`` inverts that
    (everything is private except matches).
    """

    private_ext_dirs: List[str] = field(default_factory=list)
    private_filters: List[IntentFilter] = field(default_factory=list)
    filter_mode: str = "whitelist"

    def __post_init__(self) -> None:
        if self.filter_mode not in ("whitelist", "blacklist"):
            raise ValueError(f"bad filter_mode: {self.filter_mode}")
        self.private_ext_dirs = [d.strip("/") for d in self.private_ext_dirs]

    # ------------------------------------------------------------------
    # XML form ("an XML file called the Maxoid manifest", paper 6.1)
    # ------------------------------------------------------------------

    @classmethod
    def from_xml(cls, xml_text: str) -> "MaxoidManifest":
        """Parse the XML manifest format::

            <maxoid>
              <private-ext-dir path="Dropbox"/>
              <private-intents mode="whitelist">
                <filter action="android.intent.action.VIEW" scheme="content"/>
              </private-intents>
            </maxoid>

        ``scheme`` and ``authority`` attributes may hold comma-separated
        lists; ``action`` likewise. ``priority`` is an integer attribute.
        """
        root = ElementTree.fromstring(xml_text)
        if root.tag != "maxoid":
            raise ValueError(f"not a maxoid manifest (root <{root.tag}>)")
        private_dirs = [
            element.attrib["path"] for element in root.findall("private-ext-dir")
        ]
        filters: List[IntentFilter] = []
        mode = "whitelist"
        intents = root.find("private-intents")
        if intents is not None:
            mode = intents.attrib.get("mode", "whitelist")
            for element in intents.findall("filter"):
                def split(name: str) -> List[str]:
                    raw = element.attrib.get(name, "")
                    return [part.strip() for part in raw.split(",") if part.strip()]

                filters.append(
                    IntentFilter(
                        actions=split("action"),
                        schemes=split("scheme"),
                        authorities=split("authority"),
                        mime_prefixes=split("mime"),
                        priority=int(element.attrib.get("priority", "0")),
                    )
                )
        return cls(
            private_ext_dirs=private_dirs,
            private_filters=filters,
            filter_mode=mode,
        )

    def to_xml(self) -> str:
        """Serialize back to the XML manifest format (round-trippable)."""
        root = ElementTree.Element("maxoid")
        for directory in self.private_ext_dirs:
            ElementTree.SubElement(root, "private-ext-dir", {"path": directory})
        if self.private_filters or self.filter_mode != "whitelist":
            intents = ElementTree.SubElement(
                root, "private-intents", {"mode": self.filter_mode}
            )
            for intent_filter in self.private_filters:
                attrs = {}
                if intent_filter.actions:
                    attrs["action"] = ",".join(intent_filter.actions)
                if intent_filter.schemes:
                    attrs["scheme"] = ",".join(intent_filter.schemes)
                if intent_filter.authorities:
                    attrs["authority"] = ",".join(intent_filter.authorities)
                if intent_filter.mime_prefixes:
                    attrs["mime"] = ",".join(intent_filter.mime_prefixes)
                if intent_filter.priority:
                    attrs["priority"] = str(intent_filter.priority)
                ElementTree.SubElement(intents, "filter", attrs)
        return ElementTree.tostring(root, encoding="unicode")

    def is_private_ext_path(self, ext_relative_path: str) -> bool:
        """True if ``ext_relative_path`` (relative to EXTDIR) falls inside
        one of the declared private directories."""
        normalized = vpath.normalize("/" + ext_relative_path)
        return any(
            vpath.is_within(normalized, "/" + private) for private in self.private_ext_dirs
        )

    def intent_is_private(self, intent: Intent) -> bool:
        """Decide whether an outgoing intent should invoke a delegate,
        according to the declared filters. The explicit
        ``FLAG_MAXOID_DELEGATE`` is handled by the Activity Manager and
        overrides this."""
        matched = any(f.matches(intent) for f in self.private_filters)
        if self.filter_mode == "whitelist":
            return matched
        return not matched


#: Manifest for apps that declare nothing (stock Android behaviour).
EMPTY_MANIFEST = MaxoidManifest()
